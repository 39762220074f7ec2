"""Pin the paper-scale seed-0 ``fig6`` payload digest into ``pins.json``.

Runs the Figure 6 matrix at the default interaction counts on both
replay engines — the scalar engine is the oracle, the vector engine the
benchmarked fast path — and writes the digest only if the two payloads
are identical.  Re-run after an intentional model change (one that
bumps ``MODEL_VERSION``):

    python3 perfbench/pin_fig6.py
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.experiments import store as store_mod  # noqa: E402
from repro.experiments.fig6 import run_fig6  # noqa: E402

import workloads as wl  # noqa: E402


def fig6_payload(engine: str) -> dict:
    store_mod.reset_stores()
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        settings = wl.settings_for("fig6", 0, Path(tmp))
        settings.config = settings.config.with_engine(engine)
        return wl.payload_of("fig6", run_fig6(settings, verbose=False))


def main() -> int:
    vector = fig6_payload("vector")
    scalar = fig6_payload("scalar")
    if vector != scalar:
        print("ERROR: scalar and vector fig6 payloads differ; nothing pinned",
              file=sys.stderr)
        return 1
    pins = {
        "model": store_mod.MODEL_VERSION,
        "fig6_seed0_sha256": wl.digest(vector),
        "fig6_seed0_paper_err_pct": wl.paper_errors_pct(vector),
        "cross_checked": ["vector", "scalar"],
    }
    wl.PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(json.dumps(pins, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
