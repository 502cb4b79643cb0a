"""Command-line entry point.

Exit codes: 0 success / positive verdict, 1 negative verdict (ill-formed,
axiom FAIL, proof Rejected, false sentence), 2 usage or parse error,
3 budget exceeded (also a suite that has not failed but SKIPs a row).
Text output is human-oriented; --format json is the stable surface.

Each cmd_* function returns (payload, lines, exit code), and main prints
the payload under --format json, else the lines.  A command that prints a
model or graph document returns it as its one line and no payload.

Each command imports the layers it runs inside its cmd_* function, so a
process loads only those; hotk.errors is imported up front because main
catches its classes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, List, Optional

from hotk.errors import (DEFAULT_BUDGET, BudgetExceeded, EvalError,
                         FormationError, HotkError, ParseError, RankUndefined)

if TYPE_CHECKING:
    from hotk.graphs import MembershipGraph
    from hotk.models.core import Model

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _answer(value, payload: dict, lines: List[str]) -> tuple:
    """A yes/no verdict: exit 0 on yes, 1 on no."""
    return payload, lines, EXIT_OK if value else EXIT_NEGATIVE


def _suite(report) -> tuple:
    """A suite report, by one rule for every suite: exit 1 if the report
    failed (report.SuiteReport.failed), else 3 if a row is SKIPPED for the
    budget, else 0."""
    skipped = any(v.status == "SKIPPED" for v in report.verdicts)
    return report.to_json(), report.lines(), (
        EXIT_NEGATIVE if report.failed else EXIT_BUDGET if skipped else EXIT_OK)


def _read(path: str) -> str:
    """The text of a file, or of stdin for `-`; it must be UTF-8."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{'stdin' if path == '-' else path} is not UTF-8 "
                         f"text: {e.reason} at byte {e.start}") from None


def _load_model(path: str) -> Model:
    from hotk.models.core import Model
    return Model.loads(_read(path))


def _load_graph(path: str) -> MembershipGraph:
    from hotk.graphs import MembershipGraph
    return MembershipGraph.loads(_read(path))


def _parse_lets(pairs: List[str], m: Model) -> dict:
    """The assignment of `--let term=entity` pairs; each entity must be in
    the model's domain of its term's type."""
    from hotk.kernel.parser import parse_term
    from hotk.models.core import akey
    env = {}
    for p in pairs:
        lhs, _, rhs = p.partition("=")
        if not rhs:
            raise ParseError(f"--let wants term=entity, got {p!r}")
        term, entity = parse_term(lhs.strip()), rhs.strip()
        env[akey(term)] = entity
        if entity not in m.domain(term.index):
            raise EvalError(f"--let: {entity!r} is not a type {term.index} "
                            f"entity of the model")
    return env


def cmd_check(args) -> tuple:
    from hotk.kernel.formation import check_formation
    from hotk.kernel.parser import hol_lines, parse_formula, parse_hol_lines
    from hotk.kernel.regimes import parse_regime
    regime = parse_regime(args.theory)
    if not args.file and args.formula is None:
        raise ParseError("give a formula or --file")
    if args.file:
        text = _read(args.file)
        lines = [line for _, line in hol_lines(text)]
        formulas = parse_hol_lines(text)
    else:
        lines, formulas = [args.formula], [parse_formula(args.formula)]
    results = []
    for line, f in zip(lines, formulas):
        v = check_formation(f, regime)
        results.append({"formula": line, "well_formed": v.ok,
                        "reason": v.reason, "offender": v.offender})
    return _answer(all(r["well_formed"] for r in results),
                   {"theory": str(regime), "results": results},
                   [("well-formed" if r["well_formed"]
                     else f"ill-formed: {r['reason']} in {r['offender']}")
                    for r in results])


def cmd_expand(args) -> tuple:
    from hotk.kernel.expand import expand_abbreviations
    from hotk.kernel.parser import parse_formula
    from hotk.kernel.printer import print_formula
    from hotk.kernel.regimes import parse_regime
    from hotk.kernel.syntax import alpha_normalize
    regime = parse_regime(args.theory)
    f = parse_formula(args.formula)
    out = expand_abbreviations(f, regime)
    if args.normalize:
        out = alpha_normalize(out)
    text = print_formula(out)
    return {"input": args.formula, "expanded": text}, [text], EXIT_OK


def cmd_translate(args) -> tuple:
    from hotk.kernel.parser import parse_hol_lines
    from hotk.kernel.printer import print_formula
    from hotk.translate import KAPPA, parse_map
    tmap = parse_map(args.map)
    mode = "set" if tmap.name == KAPPA else "typed"
    outputs = [print_formula(tmap.apply(f))
               for f in parse_hol_lines(_read(args.input), mode)]
    return {"map": args.map, "formulas": outputs}, outputs, EXIT_OK


def cmd_eval(args) -> tuple:
    from hotk.kernel.formation import check_formation
    from hotk.kernel.parser import parse_formula
    from hotk.kernel.regimes import parse_regime
    from hotk.models.core import eval_formula
    m = _load_model(args.model)
    f = parse_formula(args.formula)
    if args.theory:
        v = check_formation(f, parse_regime(args.theory))
        if not v:
            raise FormationError(f"{v.reason} in {v.offender}")
    value = eval_formula(m, f, _parse_lets(args.let or [], m),
                         budget=args.budget)
    return _answer(value, {"value": value}, ["true" if value else "false"])


def cmd_decide(args) -> tuple:
    from hotk.kernel.parser import parse_formula
    from hotk.models.decide import decide_fjt
    f = parse_formula(args.formula)
    value = decide_fjt(f, args.height, budget=args.budget)
    return _answer(value, {"value": value}, ["true" if value else "false"])


def cmd_model_build(args) -> tuple:
    from hotk.models.builders import (build_class_model, build_fjt_canonical,
                                      build_graph_model, build_pure_model,
                                      build_sttd_companion,
                                      build_sttu_companion)
    if args.urelements is not None and args.kind != "class":
        raise ParseError("--urelements applies only to --kind class")
    if args.graph is not None and args.kind != "graph":
        raise ParseError("--graph applies only to --kind graph")
    height = 3 if args.height is None else args.height
    if args.kind == "class":
        m = build_class_model(args.urelements or 0, height, budget=args.budget)
    elif args.kind == "pure":
        m = build_pure_model(height, budget=args.budget)
    elif args.kind == "fjt":
        m = build_fjt_canonical(height, budget=args.budget)
    else:
        if not args.graph:
            raise ParseError("--graph is required for graph models")
        m = build_graph_model(_load_graph(args.graph), height=args.height)
    if args.companion == "up":
        m = build_sttu_companion(m)
    elif args.companion == "down":
        m = build_sttd_companion(m)
    text = m.dumps()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return None, [] if args.output else [text], EXIT_OK


def cmd_model_check(args) -> tuple:
    from hotk.kernel.regimes import parse_regime
    from hotk.models.axioms import check_axiom_suite
    m = _load_model(args.model)
    theory = parse_regime(args.theory)
    max_type = args.max_type if args.max_type is not None else m.max_type
    return _suite(check_axiom_suite(m, theory, max_type, budget=args.budget))


def _separation_corpus(path: Optional[str]) -> list:
    """The formulas of `sets check` and `sets kappa-check`: the bundled
    separation corpus, or those of the --corpus file."""
    if path is None:
        from hotk.corpus import separation_corpus
        return separation_corpus()
    from hotk.kernel.parser import parse_hol_lines
    return list(parse_hol_lines(_read(path), mode="set"))


def cmd_sets(args) -> tuple:
    from hotk import settheory
    if args.sets_cmd == "build-v":
        return None, [settheory.build_V(args.n, budget=args.budget).dumps()], EXIT_OK
    if args.sets_cmd == "slice":
        s = settheory.S_construction(_load_model(args.model), args.kappa, args.budget)
        return None, [s.dumps()], EXIT_OK
    g = _load_graph(args.graph)
    if args.sets_cmd == "check":
        return _suite(settheory.check_set_axioms(
            g, args.which, _separation_corpus(args.corpus), budget=args.budget))
    if args.sets_cmd == "levels":
        lv = settheory.levels_of(g, args.budget)
        ranks = {}
        for node in g.nodes:
            try:
                ranks[node] = settheory.rank(g, node, lv)
            except RankUndefined:
                ranks[node] = None
        return ({"levels": lv, "ranks": ranks},
                [f"levels: {', '.join(lv) if lv else '(none)'}"]
                + [f"rank {node} = {r if r is not None else 'undefined'}"
                   for node, r in ranks.items()], EXIT_OK)
    if args.sets_cmd == "collapse":
        out, mapping = settheory.mostowski_collapse(g)
        return ({"graph": out.to_json(), "map": mapping},
                [out.dumps()] + [f"{k} -> {v}" for k, v in sorted(mapping.items())],
                EXIT_OK)
    if args.sets_cmd == "t-model":
        return None, [settheory.T_construction(g).dumps()], EXIT_OK
    if args.sets_cmd == "kappa-check":
        return _suite(settheory.check_kappa_axioms_in_T(
            g, args.kappa, _separation_corpus(args.corpus), budget=args.budget))
    value = settheory.is_standard(g, budget=args.budget)     # standard
    return _answer(value, {"standard": value},
                   ["standard" if value else "non-standard"])


def cmd_prove(args) -> tuple:
    if args.prove_cmd == "fixtures":
        from hotk.proofkit.fixtures import verify_fixture_suite
        report = verify_fixture_suite()
        return _answer(report.all_as_expected, report.to_json(), report.lines())
    from hotk.proofkit.checker import check_proof, loads_proof
    verdict = check_proof(loads_proof(_read(args.file)))
    lines = ["Accepted"] if verdict.accepted else [
        f"Rejected at step {verdict.step}: {verdict.tag} ({verdict.message})"]
    return _answer(verdict.accepted, verdict.to_json(), lines)


def cmd_corpus(args) -> tuple:
    from hotk.corpus import run_all
    ok, lines = run_all()
    return _answer(ok, {"ok": ok, "log": lines}, lines)


FORMATS = ("text", "json")


class UsageError(Exception):
    """A command line argparse rejects, with the usage text it would print."""

    def __init__(self, message: str, prog: str, usage: str):
        super().__init__(message)
        self.prog = prog
        self.usage = usage


class _ArgumentParser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print the usage and exit, so
    that main can report it in the requested format."""

    def error(self, message):
        raise UsageError(message, self.prog, self.format_usage())


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="hotk",
        description="Workbench for standard, cumulative, raised and "
                    "projection-typed theories at desk scale.")
    ap.add_argument("--format", choices=FORMATS, default="text")
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help=f"enumeration cap (default: {DEFAULT_BUDGET})")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="formation checking")
    p.add_argument("--theory", required=True)
    p.add_argument("--file", help=".hol file (- for stdin)")
    p.add_argument("formula", nargs="?")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("expand", help="eliminate defined symbols")
    p.add_argument("--theory", required=True)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("translate", help="apply a translation map")
    p.add_argument("--map", required=True,
                   help="kappa:<idx> | i-ctt-sttu | j-sttu-ctt | i-fjt-sttd | j-sttd-fjt")
    p.add_argument("input", help=".hol file (- for stdin)")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("eval", help="evaluate in a model")
    p.add_argument("--model", required=True)
    p.add_argument("--theory")
    p.add_argument("--let", action="append", metavar="TERM=ENTITY")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("decide", help="decide a finitary sentence")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("formula")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("model", help="model building and axiom checking")
    msub = p.add_subparsers(dest="model_cmd", required=True)
    b = msub.add_parser("build")
    b.add_argument("--kind", required=True, choices=("class", "pure", "fjt", "graph"))
    b.add_argument("--height", type=int, help="default 3; a graph's top rank label")
    b.add_argument("--urelements", type=int)
    b.add_argument("--graph")
    b.add_argument("--companion", choices=("up", "down"))
    b.add_argument("-o", "--output")
    b.set_defaults(fn=cmd_model_build)
    c = msub.add_parser("check")
    c.add_argument("--model", required=True)
    c.add_argument("--theory", required=True)
    c.add_argument("--max-type", type=int, dest="max_type")
    c.set_defaults(fn=cmd_model_check)

    p = sub.add_parser("sets", help="level theory over membership graphs")
    ssub = p.add_subparsers(dest="sets_cmd", required=True)
    v = ssub.add_parser("build-v")
    v.add_argument("n", type=int)
    v.set_defaults(fn=cmd_sets)
    ck = ssub.add_parser("check")
    ck.add_argument("which", choices=("lt", "zr"))
    ck.add_argument("graph")
    ck.add_argument("--corpus")
    ck.set_defaults(fn=cmd_sets)
    for name in ("levels", "collapse", "t-model", "standard"):
        q = ssub.add_parser(name)
        q.add_argument("graph")
        q.set_defaults(fn=cmd_sets)
    kc = ssub.add_parser("kappa-check")
    kc.add_argument("--kappa", type=int, required=True)
    kc.add_argument("graph")
    kc.add_argument("--corpus")
    kc.set_defaults(fn=cmd_sets)
    sl = ssub.add_parser("slice")
    sl.add_argument("--kappa", type=int, required=True)
    sl.add_argument("model")
    sl.set_defaults(fn=cmd_sets)

    p = sub.add_parser("prove", help="proof checking")
    psub = p.add_subparsers(dest="prove_cmd", required=True)
    pc = psub.add_parser("check")
    pc.add_argument("file")
    pc.set_defaults(fn=cmd_prove)
    pf = psub.add_parser("fixtures")
    pf.set_defaults(fn=cmd_prove)

    p = sub.add_parser("corpus", help="bundled corpora")
    csub = p.add_subparsers(dest="corpus_cmd", required=True)
    cr = csub.add_parser("run")
    cr.set_defaults(fn=cmd_corpus)

    return ap


def _report_error(output_format: str, error: Exception, text: str) -> None:
    """Print an error on stderr: as text, or under --format json as an
    object naming the error class."""
    if output_format == "json":
        text = json.dumps({"error": type(error).__name__, "message": str(error)},
                          sort_keys=True)
    print(text, file=sys.stderr)


def _requested_format(argv: Optional[List[str]]) -> str:
    """The --format of a command line that argparse rejected, read alone so
    that usage errors can be reported in it too; text if it is unreadable."""
    ap = _ArgumentParser(add_help=False)
    ap.add_argument("--format", choices=FORMATS, default="text")
    try:
        return ap.parse_known_args(argv)[0].format
    except UsageError:
        return "text"


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.budget < 0:
            ap.error(f"argument --budget: must not be negative, got {args.budget}")
    except SystemExit as e:         # --help
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    except UsageError as e:
        _report_error(_requested_format(argv), e,
                      f"{e.usage}{e.prog}: error: {e}")
        return EXIT_USAGE
    try:
        payload, lines, code = args.fn(args)
    except BudgetExceeded as e:
        _report_error(args.format, e, f"budget exceeded: {e}")
        return EXIT_BUDGET
    except (HotkError, OSError) as e:
        _report_error(args.format, e, f"error: {e}")
        return EXIT_USAGE
    if args.format == "json" and payload is not None:
        lines = [json.dumps(payload, sort_keys=True)]
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
