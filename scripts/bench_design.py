"""Time the designer's path against HEAD and write BENCH_design.json.

Calls paired by bench_harness.py, on the design scan's inputs, memos warm:
  * `air_model._check_sigma_domain` on a float (CALLS_PER_SAMPLE calls);
  * `detection.ranging_modes`;
  * `detection.purify`, full (against w_X and w_Pw) and X-only;
  * `detection.numeric_detection_mode` for L, the exact oracle;
  * `detection.contamination_report`;
  * one whole design, as `perfbench.workloads.DesignScan.op` makes it.
The gate is `contamination_report(...).to_text()` over the timed designs.

Usage: python scripts/bench_design.py
"""

import importlib

import bench_harness as harness

SEED = 7
SAMPLES = 9000
# calls per sample of the calls too short to time one at a time
CALLS_PER_SAMPLE = {"check_sigma_domain": 20}


def tree_calls(package: str, pulse_shapes) -> dict:
    """The timed calls of one tree; "design" returns the design's report."""
    air_model = importlib.import_module(f"{package}.air_model")
    detection = importlib.import_module(f"{package}.detection")
    errors = importlib.import_module(f"{package}.errors")
    mode_algebra = importlib.import_module(f"{package}.mode_algebra")

    pulses = [mode_algebra.GaussianPulse.from_wavelength(lam, rel) for lam, rel in pulse_shapes]
    pulse = mode_algebra.GaussianPulse.from_wavelength(800e-9, 1.0 / 6.0)
    state = air_model.AirState.standard()
    w_l, w_x, w_pw = detection.ranging_modes(pulse, state, 1.0)

    def design(d):
        p = pulses[d.pulse]
        s = air_model.AirState(d.temperature_c, d.pressure_pa, d.co2_percent, d.water_vapor_pa)
        report = detection.contamination_report(p, s, d.length_m, d.photons)
        wl, wx, wpw = detection.ranging_modes(p, s, d.length_m)
        try:
            detection.purify(wl, [wx, wpw])
        except errors.SeparabilityError:
            pass
        detection.purify(wl, [wx])
        return report

    def check_sigma_domain(_):
        for _ in range(CALLS_PER_SAMPLE["check_sigma_domain"]):
            air_model._check_sigma_domain(1.25)

    return {
        "check_sigma_domain": check_sigma_domain,
        "ranging_modes": lambda _: detection.ranging_modes(pulse, state, 1.0),
        "purify_full": lambda _: detection.purify(w_l, [w_x, w_pw]),
        "purify_x_only": lambda _: detection.purify(w_l, [w_x]),
        "oracle_l": lambda _: detection.numeric_detection_mode("L", pulse, state, 1.0),
        "contamination_report": lambda _: detection.contamination_report(pulse, state, 1.0, 8e16),
        "design": design,
    }


def main() -> None:
    with harness.staged_trees() as (_, parent, digest):
        from perfbench.workloads import design_epoch, design_pulses

        trees = {side: tree_calls(harness.PACKAGES[side], design_pulses(SEED)) for side in harness.TREES}
        for d in design_epoch(SEED, 0):
            for calls in trees.values():
                calls["design"](d)
        designs = design_epoch(SEED, 1)
        per_call = {
            name: harness.time_calls({side: trees[side][name] for side in harness.TREES}, SAMPLES, designs,
                                     scale=CALLS_PER_SAMPLE.get(name, 1))
            for name in trees["change"]
        }
        for side, calls in trees.items():
            for d in designs:
                digest[side].update(calls["design"](d).to_text().encode())

    harness.write_report("BENCH_design.json", parent, "designer path, seconds per warm call", {
        "samples": SAMPLES,
        "calls_per_sample": {name: CALLS_PER_SAMPLE.get(name, 1) for name in per_call},
        "inputs": "800 nm, bandwidth 1/6, standard air, 1 m, 8e16 photons; design_scan seed "
                  f"{SEED}, designs of its second epoch",
        "per_call": per_call,
    }, digest, "report_text_sha256")


if __name__ == "__main__":
    main()
