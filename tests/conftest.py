from hypothesis import settings

# CI runs with --hypothesis-profile=ci, so its property examples repeat
# from run to run and a failure prints the blob that reproduces it; local
# runs keep the default profile and explore new examples
settings.register_profile("ci", derandomize=True, print_blob=True)
