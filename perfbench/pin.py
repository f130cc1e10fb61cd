"""Record the expected answers of every workload call in ``expected.json``.

Usage: python3 perfbench/pin.py

Runs each workload once on the pool labelling (no relabelling), rejects the
recording if any witness is invalid or ``networkx`` disagrees with an
automorphism count or an isomorphism verdict, and writes the
relabelling-invariant part of every answer.  Rerun only when the inputs in
``inputs.py`` change; the pinned answers are those of the library at the
commit that recorded them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from networkx.algorithms.isomorphism import GraphMatcher

import worker

HERE = Path(__file__).resolve().parent


def main() -> int:
    worker.import_library()
    import check
    import inputs

    run = worker.make_runner()
    pinned: dict[str, dict] = {}
    for name in inputs.WORKLOADS:
        results: dict = {}
        pinned[name] = {}
        for call in inputs.build(name, None):
            results[call.id] = run(call, results)
            args = worker.encode_args(call.args)
            out = worker.encode_out(call.op, results[call.id])
            problems = check.validity(call.op, args, out)
            if call.op == "automorphism_count":
                g = check.nx_graph(args["g"])
                if sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter()) != out["aut"]:
                    problems.append("networkx counts a different number of automorphisms")
            if call.op == "is_isomorphic":
                if check.nx.is_isomorphic(check.nx_graph(args["g"]), check.nx_graph(args["h"])) != out["iso"]:
                    problems.append("networkx disagrees on isomorphism")
            if problems:
                print(f"{call.id}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            pinned[name][call.id] = check.invariants(call.op, args, out)
        print(f"{name}: {len(pinned[name])} calls pinned", file=sys.stderr)
    with open(HERE / "expected.json", "w") as fh:  # one line per call
        fh.write("{\n")
        for w, name in enumerate(sorted(pinned)):
            fh.write(f"{json.dumps(name)}: {{\n")
            rows = [f"{json.dumps(cid)}: {json.dumps(inv, sort_keys=True)}" for cid, inv in sorted(pinned[name].items())]
            fh.write(",\n".join(rows))
            fh.write("\n}" + (",\n" if w < len(pinned) - 1 else "\n"))
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
