"""One benchmark sample, run in a fresh interpreter so its peak RSS is its own.

    python3 perfbench/sample.py SPEC.json
    python3 perfbench/sample.py --probe

SPEC.json holds {"steps": [...], "trace": bool, "spans_out": path}.  A step
is {"cli": argv}, run through masinfo.cli.main, or {"recovered_curve":
[src, dst]}, which turns a `masinfo simulate` CSV of residual fractions into
the (k, recovered fraction) CSV that `masinfo fit-alpha` fits.  The last line
of stdout is a JSON object with the sample's wall time, peak RSS and exit
codes.  --probe only imports masinfo, to time the imports.
"""

import csv
import json
import resource
import sys
import time


def recovered_curve(src, dst):
    with open(src) as fh:
        rows = list(csv.DictReader(fh))
    with open(dst, "w") as fh:
        fh.write("k,recovered_fraction\n")
        for r in rows:
            fh.write(f"{r['k']},{1.0 - float(r['mean_residual_fraction'])!r}\n")


def peak_rss_mb():
    """Peak RSS of this process image.  ru_maxrss would not do: Linux carries
    the parent's high-water mark over fork and exec into it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    t0 = time.perf_counter()
    import masinfo
    from masinfo import cli

    import_s = time.perf_counter() - t0
    if argv[1:] == ["--probe"]:
        print(json.dumps({"import_s": import_s, "masinfo": masinfo.__file__}))
        return 0
    with open(argv[1]) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    codes = []
    start = time.perf_counter()
    for step in spec["steps"]:
        if "cli" in step:
            sid = tracer.begin("cli." + step["cli"][0]) if tracer else None
            code = cli.main(step["cli"])
            if tracer:
                tracer.end(sid)
            codes.append(code)
        else:
            recovered_curve(*step["recovered_curve"])
    wall_s = time.perf_counter() - start
    peak_mb = peak_rss_mb()

    if tracer:
        tracer.dump(spec["spans_out"])
    print(json.dumps({"wall_s": wall_s, "peak_rss_mb": peak_mb, "exit_codes": codes,
                      "import_s": import_s, "masinfo": masinfo.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
