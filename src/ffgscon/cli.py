"""Command-line interface.

Verbs:

* ``validate <instance>``    structural checks, one line per check
* ``ledger <instance>``      the derived-constant report, with the QMA(2) tuning
                             and the gap's polynomial order
* ``verify <instance>``      exact/sampled verification run
* ``lemmas <instance>``      the per-threshold boundary-adversary suite
* ``fixtures list``          built-in instances

``<instance>`` is a built-in fixture name or a path to an instance file.
Exit codes: 0 success, 1 validation failure, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .fixtures import builtin_instances
from .harness import (
    ExperimentConfig,
    HarnessError,
    demo_magnitude,
    emit_report,
    require_valid,
    resolve_instance,
    run_lemma_suite,
    run_monte_carlo,
)
from .instances import validate_instance
from .ledger import derive_parameters
from .witnesses import AdversaryKind, AdversarySpec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _parse_adversary(text: str, inst, ledger):
    kind_s, _, mag_s = text.partition(":")
    try:
        kind = AdversaryKind(kind_s.upper())
    except ValueError:
        raise HarnessError(f"unknown adversary kind {kind_s!r}; choose from {[k.value for k in AdversaryKind]}")
    if not mag_s:
        return AdversarySpec(kind, demo_magnitude(kind, inst, ledger))
    if kind is AdversaryKind.SMEARED_GATE:
        parts = mag_s.split(",")
        if len(parts) != 2:
            raise HarnessError("SMEARED_GATE takes MAG as x,c")
        return AdversarySpec(kind, (float(parts[0]), float(parts[1])))
    return AdversarySpec(kind, float(mag_s))


def _parse_certificate(text: str | None):
    if text is None:
        return None
    return tuple(int(v) for v in text.split(",") if v != "")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ffgscon", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="verb", required=True)

    pv = sub.add_parser("validate", help="check instance invariants")
    pv.add_argument("instance")

    pl = sub.add_parser("ledger", help="print the derived-constant report")
    pl.add_argument("instance")

    pr = sub.add_parser("verify", help="run the verifier on honest or adversarial witnesses")
    pr.add_argument("instance")
    pr.add_argument("--adversary", action="append", default=[], metavar="KIND[:MAG]",
                    help="plant a deviation; repeatable; MAG defaults to a demo magnitude")
    pr.add_argument("--mode", choices=("exact", "sampled", "both"), default="both")
    pr.add_argument("--trials", type=int, default=100_000)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--workers", type=int, default=1)
    pr.add_argument("--certificate", help="comma-separated gate indices for file-loaded instances")
    pr.add_argument("--out", help="write a report file")
    pr.add_argument("--format", choices=("json", "csv"), default="json")
    pr.add_argument("--timings", action="store_true", help="include wall-clock timings in the report file")

    pm = sub.add_parser("lemmas", help="boundary-adversary suite, one row per threshold")
    pm.add_argument("instance")
    pm.add_argument("--out")
    pm.add_argument("--format", choices=("json", "csv"), default="json")

    pf = sub.add_parser("fixtures", help="built-in instances")
    pf.add_argument("action", choices=("list",))
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (HarnessError, ValueError) as exc:
        # covers config problems, malformed instance documents, non-closed
        # gate sets, ledger constraint violations, bad magnitudes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def _dispatch(args) -> int:
    if args.verb == "fixtures":
        for fx in builtin_instances():
            inst = fx.instance
            print(
                f"{fx.name:15s} {fx.expected:3s} n={inst.n} m={inst.m} G={inst.G} R={inst.R}  {fx.note}"
            )
        return EXIT_OK

    if args.verb == "validate":
        inst, _, name = resolve_instance(args.instance)
        rep = validate_instance(inst)
        print(f"instance: {name}")
        for line in rep.lines():
            print(line)
        return EXIT_OK if rep.ok else EXIT_VALIDATION

    if args.verb == "ledger":
        inst, _, name = resolve_instance(args.instance)
        require_valid(inst)
        print(f"instance: {name}")
        for line in derive_parameters(inst).report_lines():
            print(line)
        return EXIT_OK

    if args.verb == "lemmas":
        inst, cert, name = resolve_instance(args.instance)
        report = run_lemma_suite(inst, cert, name)
        for row in report.lemma_rows:
            print(
                f"[{row.status}] test {row.targeted_test} vs {row.kind}: reject={row.exact_reject} "
                f"threshold={row.threshold} margin={row.margin}"
            )
        for note in report.notes:
            print(note)
        if args.out:
            emit_report(report, args.out, args.format)
            print(f"report written to {args.out}")
        return EXIT_OK if report.ok else EXIT_VALIDATION

    if args.verb == "verify":
        certificate = _parse_certificate(args.certificate)
        inst, cert, name = resolve_instance(args.instance, certificate)
        require_valid(inst)
        ledger = derive_parameters(inst)
        adversary = tuple(_parse_adversary(a, inst, ledger) for a in args.adversary)
        cfg = ExperimentConfig(
            instance=args.instance,
            mode=args.mode,
            trials=args.trials,
            seed=args.seed,
            adversary=adversary,
            certificate=certificate,
            workers=args.workers,
        )
        report = run_monte_carlo(cfg)
        print(f"instance: {name}  mode: {args.mode}  seed: {args.seed}")
        for row in report.rows:
            bits = [f"test={row.test_id:>5} {row.name:9s}"]
            if row.exact_accept is not None:
                bits.append(f"exact accept={row.exact_accept} reject={row.exact_reject}")
            if row.trials is not None:
                bits.append(f"sampled {row.accepts}/{row.trials} (sigma={row.sigma})")
            print("  ".join(bits))
        if args.out:
            emit_report(report, args.out, args.format, include_timings=args.timings)
            print(f"report written to {args.out}")
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
