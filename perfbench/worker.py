"""The program under test, run in a process of its own.

Start-up imports ``atckit.cli`` and loads the shipped telephony and role
lexicons, then prints ``{"ready": true}``; the benchmark times that as the
cold start. After that the worker reads one JSON request per line on
stdin and answers each with one JSON line on stdout:

* ``{"argv": [...], "trace": bool, "round": int}`` runs ``atckit.cli.main``
  on ``argv`` and answers ``{"code": int, "out": str}`` with everything the
  CLI printed. With ``trace`` set the calls are recorded as spans
  (see ``spans.py``); without it no wrapper is installed.
* ``{"finish": path_or_null}`` writes the spans and counts under that path
  prefix, answers ``{"maxrss_kib": int}`` with the process's peak RSS and
  exits. The peak is ``VmHWM`` of this process's own address space: the
  ``ru_maxrss`` of a spawned child also holds its parent's peak, carried
  over the fork and exec.

Requests are served one at a time, so the benchmark is a closed loop with
a single client.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback


def peak_rss_kib() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    reply = sys.stdout
    from atckit import cli
    from atckit.callsign import default_telephony_lexicon
    from atckit.classifier import default_role_lexicon

    default_telephony_lexicon()
    default_role_lexicon()
    print(json.dumps({"ready": True}), file=reply, flush=True)

    tracer = None
    undo: list = []
    for line in sys.stdin:
        request = json.loads(line)
        if "finish" in request:
            if tracer is not None and request["finish"]:
                tracer.save(request["finish"])
            print(json.dumps({"maxrss_kib": peak_rss_kib()}), file=reply, flush=True)
            return 0
        if bool(request.get("trace")) != bool(undo):
            import spans

            if undo:
                spans.uninstall(undo)
                undo = []
            else:
                tracer = tracer or spans.Tracer()
                undo = spans.install(tracer)
        argv = request["argv"]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                if undo:
                    tracer.current_round = request.get("round", 0)
                    idx = tracer.open("cli." + argv[0].replace("-", "_"))
                    try:
                        code = cli.main(argv)
                    finally:
                        tracer.close(idx)
                else:
                    code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failure the benchmark counts, not a reason to stop
            code = -1
            out.write(traceback.format_exc())
        print(json.dumps({"code": code, "out": out.getvalue()}), file=reply, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
