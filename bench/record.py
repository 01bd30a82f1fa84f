"""Record bench/reference.json: golden digests and CLI site counts.

    python3 bench/record.py

Run only when the library's outputs are meant to change.  The statesum
digests cover every input of the default seed and every weave variant;
each braid closure's bracket is first checked against the independent
``classical_oracle``.  The site counts are the numbers of valid sites that
``moves.find_sites`` finds for each cli_sites fixture and move kind; the
candidate counts, which order the cli_sites sessions by cost, are fixed
here too so that the schedule does not change with the library.
"""

from __future__ import annotations

import json
import sys

import run

run.use_source_tree()
import workloads as W  # noqa: E402


def main() -> int:
    empty = {"statesum_digests": {}, "cli_site_counts": {}, "cli_candidate_counts": {}}
    ss = W.StateSum(W.DEFAULT_SEED, empty)
    inputs = {item.key: item for item in ss.schedule}
    for family, n in W.WEAVES:
        bundle = W.E.example(family, n)
        for flip in (False, True):
            key = f"{family}:{n}:{'mirror' if flip else 'plain'}"
            d = W.D.mirror(bundle.diagram) if flip else bundle.diagram
            inputs.setdefault(key, W.StateInput(key, d, bundle.connection))
    digests = {}
    for key, item in sorted(inputs.items()):
        b, nb, hb = ss.compute(item)
        if item.code is not None and b != W.B.classical_oracle(item.code):
            print(f"error: {key}: bracket differs from classical_oracle",
                  file=sys.stderr)
            return 1
        digests[key] = W.statesum_digest(b, nb, hb, item.connection.group)
        print(f"{key} {digests[key]}", flush=True)
    counts, candidates = {}, {}
    for name, n in W.CLI_FIXTURES:
        stem = name if n is None else f"{name}{n}"
        d = W.E.example(name, n).diagram
        counts[stem] = {k.value: len(W.M.find_sites(d, k)) for k in W.K}
        candidates[stem] = {k.value: len(W.M.candidate_sites(d, k)) for k in W.K}
        print(stem, counts[stem], flush=True)
    W.REFERENCE_PATH.write_text(json.dumps(
        {"statesum_digests": digests, "cli_site_counts": counts,
         "cli_candidate_counts": candidates}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
