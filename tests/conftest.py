from hypothesis import settings

# Property tests here build tables and integrate ODEs, so one example can
# take longer than hypothesis's 200 ms default on a slow or loaded machine;
# a failure prints the blob that replays it with @reproduce_failure.
settings.register_profile("hypersine", deadline=None, print_blob=True)
settings.load_profile("hypersine")
