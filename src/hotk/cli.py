"""Command-line entry point.

Exit codes: 0 success / positive verdict, 1 negative verdict (ill-formed,
axiom FAIL, proof Rejected, false sentence), 2 usage or parse error,
3 budget exceeded.  Text output is human-oriented; --format json is the
stable surface.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from hotk import corpus
from hotk.errors import (BudgetExceeded, EvalError, FormationError,
                         GraphError, HotkError, ParseError, ProofError,
                         RankUndefined)
from hotk.graphs import MembershipGraph
from hotk.kernel import (alpha_normalize, check_formation,
                         expand_abbreviations, parse_formula,
                         parse_regime, parse_term, print_formula)
from hotk.kernel.parser import hol_lines
from hotk.models import (Model, akey, build_class_model, build_fjt_canonical,
                         build_graph_model, build_pure_model,
                         build_sttd_companion, build_sttu_companion,
                         check_axiom_suite, decide_fjt, eval_formula)
from hotk.proofkit import check_proof, loads_proof, verify_fixture_suite
from hotk.settheory import (S_construction, T_construction, build_V,
                            check_kappa_axioms_in_T, check_set_axioms,
                            is_standard, levels_of, mostowski_collapse,
                            rank as level_rank)
from hotk.translate import parse_map

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _read_formula_lines(path: str) -> List[str]:
    text = sys.stdin.read() if path == "-" else open(path).read()
    return [line for _, line in hol_lines(text)]


def _load_model(path: str) -> Model:
    return Model.loads(open(path).read())


def _load_graph(path: str) -> MembershipGraph:
    return MembershipGraph.loads(open(path).read())


def _parse_lets(pairs: List[str]) -> dict:
    env = {}
    for p in pairs:
        lhs, _, rhs = p.partition("=")
        if not rhs:
            raise ParseError(f"--let wants term=entity, got {p!r}")
        env[akey(parse_term(lhs.strip()))] = rhs.strip()
    return env


def cmd_check(args) -> int:
    regime = parse_regime(args.theory)
    if not args.file and args.formula is None:
        raise ParseError("give a formula or --file")
    lines = _read_formula_lines(args.file) if args.file else [args.formula]
    results = []
    ok = True
    for line in lines:
        f = parse_formula(line)
        v = check_formation(f, regime)
        ok = ok and v.ok
        results.append({"formula": line, "well_formed": v.ok,
                        "reason": v.reason, "offender": v.offender})
    _emit(args, {"theory": str(regime), "results": results},
          [("well-formed" if r["well_formed"]
            else f"ill-formed: {r['reason']} in {r['offender']}")
           for r in results])
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_expand(args) -> int:
    regime = parse_regime(args.theory)
    f = parse_formula(args.formula)
    out = expand_abbreviations(f, regime)
    if args.normalize:
        out = alpha_normalize(out)
    text = print_formula(out)
    _emit(args, {"input": args.formula, "expanded": text}, [text])
    return EXIT_OK


def cmd_translate(args) -> int:
    tmap = parse_map(args.map)
    mode = "set" if tmap.name == "kappa" else "typed"
    outputs = []
    for line in _read_formula_lines(args.input):
        f = parse_formula(line, mode=mode)
        outputs.append(print_formula(tmap.apply(f)))
    _emit(args, {"map": args.map, "formulas": outputs}, outputs)
    return EXIT_OK


def cmd_eval(args) -> int:
    m = _load_model(args.model)
    f = parse_formula(args.formula)
    if args.theory:
        v = check_formation(f, parse_regime(args.theory))
        if not v:
            raise FormationError(f"{v.reason} in {v.offender}")
    value = eval_formula(m, f, _parse_lets(args.let or []), budget=args.budget)
    _emit(args, {"value": value}, ["true" if value else "false"])
    return EXIT_OK if value else EXIT_NEGATIVE


def cmd_decide(args) -> int:
    f = parse_formula(args.formula)
    value = decide_fjt(f, args.height, budget=args.budget)
    _emit(args, {"value": value}, ["true" if value else "false"])
    return EXIT_OK if value else EXIT_NEGATIVE


def cmd_model_build(args) -> int:
    if args.kind == "class":
        m = build_class_model(args.urelements, args.height, budget=args.budget)
    elif args.kind == "pure":
        m = build_pure_model(args.height, budget=args.budget)
    elif args.kind == "fjt":
        m = build_fjt_canonical(args.height, budget=args.budget)
    elif args.kind == "graph":
        if not args.graph:
            raise ParseError("--graph is required for graph models")
        m = build_graph_model(_load_graph(args.graph), height=args.height)
    else:
        raise ParseError(f"unknown model kind {args.kind!r}")
    if args.companion == "up":
        m = build_sttu_companion(m)
    elif args.companion == "down":
        m = build_sttd_companion(m)
    text = m.dumps()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return EXIT_OK


def cmd_model_check(args) -> int:
    m = _load_model(args.model)
    theory = parse_regime(args.theory)
    max_type = args.max_type if args.max_type is not None else m.max_type
    report = check_axiom_suite(m, theory, max_type, budget=args.budget)
    _emit(args, report.to_json(), report.lines())
    return EXIT_OK if report.all_pass else EXIT_NEGATIVE


def cmd_sets(args) -> int:
    if args.sets_cmd == "build-v":
        g = build_V(args.n, budget=args.budget)
        print(g.dumps())
        return EXIT_OK
    if args.sets_cmd == "slice":
        m = _load_model(args.model)
        print(S_construction(m, args.kappa).dumps())
        return EXIT_OK
    g = _load_graph(args.graph)
    if args.sets_cmd == "check":
        corpus_formulas = corpus.separation_corpus() if args.corpus is None else [
            parse_formula(l, mode="set") for l in _read_formula_lines(args.corpus)]
        report = check_set_axioms(g, args.which, corpus_formulas, budget=args.budget)
        _emit(args, report.to_json(), report.lines())
        return EXIT_OK if report.all_pass else EXIT_NEGATIVE
    if args.sets_cmd == "levels":
        lv = levels_of(g)
        ranks = {}
        for node in g.nodes:
            try:
                ranks[node] = level_rank(g, node, lv)
            except RankUndefined:
                ranks[node] = None
        _emit(args, {"levels": lv, "ranks": ranks},
              [f"levels: {', '.join(lv) if lv else '(none)'}"]
              + [f"rank {node} = {r if r is not None else 'undefined'}"
                 for node, r in ranks.items()])
        return EXIT_OK
    if args.sets_cmd == "collapse":
        out, mapping = mostowski_collapse(g)
        _emit(args, {"graph": out.to_json(), "map": mapping},
              [out.dumps()] + [f"{k} -> {v}" for k, v in sorted(mapping.items())])
        return EXIT_OK
    if args.sets_cmd == "t-model":
        print(T_construction(g).dumps())
        return EXIT_OK
    if args.sets_cmd == "kappa-check":
        corpus_formulas = corpus.separation_corpus() if args.corpus is None else [
            parse_formula(l, mode="set") for l in _read_formula_lines(args.corpus)]
        report = check_kappa_axioms_in_T(g, args.kappa, corpus_formulas,
                                         budget=args.budget)
        _emit(args, report.to_json(), report.lines())
        core = [v for v in report.verdicts
                if v.name.split("^")[0] in ("extensionality", "separation",
                                            "stratification")]
        return EXIT_OK if all(v.status == "PASS" for v in core) else EXIT_NEGATIVE
    if args.sets_cmd == "standard":
        value = is_standard(g, budget=args.budget)
        _emit(args, {"standard": value}, ["standard" if value else "non-standard"])
        return EXIT_OK if value else EXIT_NEGATIVE
    raise ParseError(f"unknown sets subcommand {args.sets_cmd!r}")


def cmd_prove(args) -> int:
    if args.prove_cmd == "fixtures":
        report = verify_fixture_suite()
        _emit(args, report.to_json(), report.lines())
        return EXIT_OK if report.all_as_expected else EXIT_NEGATIVE
    proof = loads_proof(open(args.file).read())
    verdict = check_proof(proof)
    lines = ["Accepted"] if verdict.accepted else [
        f"Rejected at step {verdict.step}: {verdict.tag} ({verdict.message})"]
    _emit(args, verdict.to_json(), lines)
    return EXIT_OK if verdict.accepted else EXIT_NEGATIVE


def cmd_corpus(args) -> int:
    report = corpus.run_all(budget=args.budget)
    _emit(args, report["json"], report["lines"])
    return EXIT_OK if report["ok"] else EXIT_NEGATIVE


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
    ap.add_argument("--budget", type=int,
                    default=int(os.environ.get("HOTK_BUDGET", "1000000")))
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
    b.add_argument("--height", type=int, default=3)
    b.add_argument("--urelements", type=int, default=0)
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
    except SystemExit as e:         # --help
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    except UsageError as e:
        _report_error(_requested_format(argv), e,
                      f"{e.usage}{e.prog}: error: {e}")
        return EXIT_USAGE
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        _report_error(args.format, e, f"budget exceeded: {e}")
        return EXIT_BUDGET
    except (ParseError, FormationError, EvalError, GraphError, ProofError,
            RankUndefined, HotkError, OSError, ValueError) as e:
        _report_error(args.format, e, f"error: {e}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
