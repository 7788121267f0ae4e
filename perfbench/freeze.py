"""Freeze the census inputs and the golden output digests.

Writes ``data/census.txt`` (every valid portrait of the censuses, in
enumeration order) and ``data/golden.json`` (SHA-256 of the text report,
JSON and SVG of each census portrait, and of each enumeration's portrait
list) from the program in ``src/``.  The committed files come from the
program as it stood when the benchmark was defined; rerunning this on a
later revision is how a deliberate output change would be re-frozen::

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json

import inputs
from workload import build_outputs, check_analysis, portraits, sha


def enumerated_texts(d: int, p: int) -> list[str]:
    return [inputs.portrait_text(q.degree, q.sets)
            for q in portraits.portrait.enumerate_portraits(d, p)]


def main() -> None:
    inputs.DATA.mkdir(exist_ok=True)
    census = [((d, p), enumerated_texts(d, p)) for d, p in inputs.CENSUSES]
    (inputs.DATA / "census.txt").write_text(inputs.census_file_text(census),
                                            encoding="utf-8")
    golden = {"census": [], "enumerate": {}}
    for item in inputs.census_inputs():
        an, outputs = build_outputs(item["text"])
        problems = check_analysis(an, item["text"])
        if problems:
            raise SystemExit(f"census portrait {item['index']}: {problems}")
        golden["census"].append([sha(o) for o in outputs])
    for d, p in inputs.ENUMERATIONS:
        texts = enumerated_texts(d, p)
        if len(texts) != inputs.ENUMERATION_COUNTS[(d, p)]:
            raise SystemExit(f"({d},{p}) enumerates {len(texts)} portraits")
        golden["enumerate"][f"{d},{p}"] = sha("".join(texts))
    (inputs.DATA / "golden.json").write_text(json.dumps(golden, indent=1) + "\n",
                                             encoding="utf-8")


if __name__ == "__main__":
    main()
