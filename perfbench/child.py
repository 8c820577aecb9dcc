"""One ``hypersine`` invocation in a fresh interpreter, started by run.py:

    python3 -I perfbench/child.py SRC OUT SPANS -- ARG...

SRC is the directory holding the ``hypersine`` package, OUT the report
path passed as ``--out``, and SPANS "-" for an untraced invocation or the
file the spans of this invocation are written to.  Prints one JSON object
on the last line of standard output: the CLOCK_MONOTONIC reading once
``hypersine.cli`` is imported, the exit code, the seconds from calling
``cli.main`` to the report being on disk, the reference routine's time
just before and just after that call, the peak RSS in KiB and, when
traced, the per-layer values.  A fresh interpreter per invocation is what
a user of the command line gets, so nothing cached by one invocation can
speed up the next.
"""

import sys
import time


def main():
    src, out, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC OUT SPANS -- ARG...")
    sys.path.insert(0, src)
    import hypersine.cli
    imported = time.clock_gettime(time.CLOCK_MONOTONIC)

    import contextlib
    import io
    import json
    import resource
    import traceback
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans

    traced = spans_path != "-"
    ref_before = reference_seconds()
    recorder = spans.SpanRecorder()
    instr = spans.Instrumentation(recorder) if traced else None
    sink = io.StringIO()
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(instr.installed())
        stack.enter_context(contextlib.redirect_stdout(sink))
        stack.enter_context(contextlib.redirect_stderr(sink))
        t0 = time.perf_counter()
        try:
            code = hypersine.cli.main(argv + ["--out", out])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # reported as a failed invocation
            code = "exception"
            sink.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    ref_after = reference_seconds()
    result = {
        "imported": imported,
        "code": code,
        "seconds": seconds,
        "ref_before": ref_before,
        "ref_after": ref_after,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "log": sink.getvalue()[-2000:] if code != 0 else "",
    }
    if traced:
        result["layers"] = spans.layer_values(recorder, instr.table_weights)
        recorder.save(spans_path)
    print(json.dumps(result))


def reference_seconds(rounds=7000):
    """Time of a fixed interpreter-bound routine (calls, complex arithmetic,
    dict updates, small numpy operations) that shares no code with
    hypersine; a gauge of how fast the machine runs right now."""
    t0 = time.perf_counter()
    acc = {}
    z = 0j
    for k in range(rounds):
        z = _reference_step(k, z)
        key = (k % 13, k % 5)
        acc[key] = acc.get(key, 0.0) + abs(z)
    # Imported here, not at the top: set-up time must include numpy's import.
    import numpy

    a = numpy.arange(64.0)
    for _ in range(rounds // 10):
        a = a * 0.5 + 1.0
    return time.perf_counter() - t0


def _reference_step(k, z):
    return z * 0.999 + complex(k % 7, 1.0) / (k + 1.0)


if __name__ == "__main__":
    main()
