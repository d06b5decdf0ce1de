"""The ``serve`` and ``client`` CLI families.

``python -m repro.experiments serve --state-dir DIR`` boots the service
and prints ``READY <port>`` on stdout once the listener is bound, so
scripts (and the CI job) can grab the ephemeral port without racing
the bind.  SIGINT /
SIGTERM shut down gracefully: the running job drains, queued jobs are
blamed ``kind="shutdown"``, nothing is silently lost.

``python -m repro.experiments client <cmd>`` talks to a running
service: ``submit`` (optionally ``--wait`` + ``--out``, the CI smoke
path), ``jobs``/``job``/``report``, ``watch`` (live SSE tail),
``stats``, ``why``.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Run the simulation-as-a-service HTTP API.",
    )
    parser.add_argument("--state-dir", required=True,
                        help="persistent service state (job journal, "
                             "report store, per-job events, checkpoints)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (0 = ephemeral; the bound port "
                             "is printed as 'READY <port>')")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker fan-out inside each run (default: 1)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="per-experiment retry budget (default: 0)")
    parser.add_argument("--ledger-dir",
                        help="run-ledger directory (default: "
                             "<state-dir>/ledger)")
    return parser


async def _serve(args: argparse.Namespace) -> int:
    from repro.service.server import make_service

    server = make_service(
        args.state_dir,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        retries=args.retries,
        ledger_dir=args.ledger_dir,
    )
    port = await server.start()
    # the boot handshake: scripts wait for this line
    print(f"READY {port}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    serve_task = asyncio.ensure_future(server.serve_forever())
    await stop.wait()
    print("shutting down: draining the running job", flush=True)
    serve_task.cancel()
    await server.stop()
    print("service stopped", flush=True)
    return 0


def serve_main(argv: list[str]) -> int:
    args = _build_serve_parser().parse_args(argv)
    if args.jobs < 0:
        print("serve: --jobs must be >= 0", file=sys.stderr)
        return 2
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------

def _build_client_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments client",
        description="Talk to a running simulation service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="submit an experiment request")
    submit.add_argument("experiments", nargs="+",
                        help="experiment ids or 'all'")
    submit.add_argument("--full", action="store_true",
                        help="full-scale configuration (default: fast)")
    submit.add_argument("--format", choices=("text", "json", "csv"),
                        default="json")
    submit.add_argument("--cycles", type=int, help="override trace length")
    submit.add_argument("--width", type=int, help="override ALU width")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal")
    submit.add_argument("--out",
                        help="with --wait: write the fetched report here "
                             "(raw bytes, byte-identical to the CLI)")

    jobs = sub.add_parser("jobs", help="list all jobs")
    del jobs

    job = sub.add_parser("job", help="show one job")
    job.add_argument("id")

    report = sub.add_parser("report", help="fetch a job's report")
    report.add_argument("id")
    report.add_argument("--out", help="write here instead of stdout")

    watch = sub.add_parser("watch", help="tail a job's event stream (SSE)")
    watch.add_argument("id")

    stats = sub.add_parser("stats", help="job counters and states")
    del stats

    why = sub.add_parser("why", help="choke blame for one cycle of a job")
    why.add_argument("id")
    why.add_argument("--cycle", type=int, required=True)
    why.add_argument("--experiment")
    why.add_argument("--benchmark", default="mcf")
    why.add_argument("--corner", default="NTC")
    return parser


def client_main(argv: list[str]) -> int:
    import json

    from repro.obs.events import format_event
    from repro.service.client import ServiceClient, ServiceError

    args = _build_client_parser().parse_args(argv)
    client = ServiceClient(args.host, args.port)
    try:
        if args.command == "submit":
            doc = client.submit(
                args.experiments, fast=not args.full, fmt=args.format,
                cycles=args.cycles, width=args.width,
            )
            print(f"{doc['id']} {doc['state']} "
                  f"({doc['disposition']}, digest {doc['digest']})")
            if args.wait:
                doc = client.wait(doc["id"])
                print(f"{doc['id']} {doc['state']} "
                      f"ok={doc['summary'].get('ok', '?')}/"
                      f"{doc['summary'].get('total', '?')}"
                      if doc["state"] == "done" else
                      f"{doc['id']} failed "
                      f"({(doc.get('error') or {}).get('kind', '?')})")
                if doc["state"] == "failed":
                    return 1
                if args.out:
                    with open(args.out, "wb") as handle:
                        handle.write(client.report(doc["id"]))
                    print(f"report written to {args.out}")
            return 0
        if args.command == "jobs":
            for doc in client.jobs():
                print(f"{doc['id']} {doc['state']:8s} "
                      f"{','.join(doc['experiments'])} "
                      f"fmt={doc['fmt']} digest={doc['digest']}"
                      + (f" dedup_of={doc['dedup_of']}"
                         if doc.get("dedup_of") else ""))
            return 0
        if args.command == "job":
            print(json.dumps(client.job(args.id), indent=2, sort_keys=True))
            return 0
        if args.command == "report":
            payload = client.report(args.id)
            if args.out:
                with open(args.out, "wb") as handle:
                    handle.write(payload)
                print(f"report written to {args.out} ({len(payload)} bytes)")
            else:
                sys.stdout.buffer.write(payload)
            return 0
        if args.command == "watch":
            for event in client.events(args.id):
                if "__done__" in event:
                    print(f"[stream end: job {event['__done__']['state']}]")
                else:
                    print(format_event(event))
            return 0
        if args.command == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        doc = client.why(args.id, args.cycle, experiment=args.experiment,
                         benchmark=args.benchmark, corner=args.corner)
        print(f"audit why: {doc['experiment']} "
              f"({doc['benchmark']}@{doc['corner']}), cycle {doc['cycle']}")
        for line in doc["lines"]:
            print(f"  {line}")
        return 0
    except ServiceError as exc:
        print(f"client: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"client: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    except TimeoutError as exc:
        print(f"client: {exc}", file=sys.stderr)
        return 1
