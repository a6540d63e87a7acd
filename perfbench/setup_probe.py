"""One fresh-interpreter set-up, timed by the process that starts it.

Imports ``repro``, reads the study directory, builds the workload's
execution substrate (a ``RunScheduler``, or a started ``ScanServer`` with
its clients connected) and prints ``READY``: from then on the first request
could be sent.  The parent measures from starting this interpreter to
reading that line, then this process tears everything down and exits.

Run by ``run.py``; ``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import shutil
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--study", required=True)
    parser.add_argument("--scheduler", help="backend of an in-process RunScheduler")
    parser.add_argument("--server", action="store_true", help="start a ScanServer")
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--clients", type=int, default=0)
    parser.add_argument("--journal-dir")
    args = parser.parse_args(argv)

    from repro.genetics.io import read_study_tables

    dataset, _freq, _ld = read_study_tables(args.study)
    if args.server:
        from repro.runtime.client import ScanClient
        from repro.runtime.server import ScanServer

        server = ScanServer(
            dataset,
            backend="process-shm",
            n_workers=args.workers,
            journal_dir=args.journal_dir,
        )
        try:
            address = server.start(("127.0.0.1", 0))
            clients = [
                ScanClient(address, client_id=f"probe-{i}") for i in range(args.clients)
            ]
            print("READY", flush=True)
            for client in clients:
                client.close()
        finally:
            server.close()
            if args.journal_dir:
                shutil.rmtree(args.journal_dir, ignore_errors=True)
        return 0

    from repro.runtime.service import RunScheduler

    kwargs = {} if args.scheduler == "serial" else {"n_workers": args.workers}
    with RunScheduler(dataset, backend=args.scheduler, **kwargs):
        print("READY", flush=True)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        # end the resource tracker with this process instead of orphaning it
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    sys.exit(code)
