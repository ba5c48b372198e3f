"""The measuring process: one fresh, single-threaded interpreter per round.

    python3 worker.py JOBS_JSON OUT_DIR plain|trace

It times ``import lcmech.cli`` (the set-up every CLI call pays), then calls
``lcmech.cli.main`` on each argument vector of JOBS_JSON in order, one at a
time, with stdout and stderr captured.  Captured output goes to
OUT_DIR/job-NNNN.out after the job's clock has stopped; timings, exit codes
and peak RSS go to OUT_DIR/result.json.  In ``trace`` mode the span recorder
of ``spans.py`` wraps lcmech's public functions first, and the per-layer
totals are added to result.json.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    t0 = time.perf_counter()
    import lcmech.cli

    setup_s = time.perf_counter() - t0
    jobs_path, out_dir, mode = sys.argv[1:4]
    out = Path(out_dir)
    jobs = json.loads(Path(jobs_path).read_text(encoding="utf-8"))
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    job_s, codes, errors = [], [], []
    for k, argv in enumerate(jobs):
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = lcmech.cli.main(argv)
            except SystemExit as exc:
                code, error = exc.code, f"SystemExit({exc.code})"
            except Exception:
                code, error = None, traceback.format_exc()
            job_s.append(time.perf_counter() - start)
        codes.append(code)
        errors.append(error if error is not None else (stderr.getvalue() or None))
        (out / f"job-{k:04d}.out").write_text(stdout.getvalue(), encoding="utf-8")
    result = {
        "setup_s": setup_s,
        "job_s": job_s,
        "codes": codes,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write_spans(out / "spans.json")
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
