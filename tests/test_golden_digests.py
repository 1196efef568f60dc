"""Golden sha256 digests of front-tracking output.

The event log (NDJSON, one sorted-key record per line), the final profile,
the scenario report (minus its wall-clock ``meta``) and every other artifact
``run_scenario`` writes are hashed for the six presets, for a seeded random
suite on Burgers and non-convex fluxes, and for two presets solved with 200
random middle steps, whose logs hold thousands of records.  Any
change to event order, front speeds, positions or states changes a digest, so
a speed-up that passes this test leaves every artifact byte unchanged.

To re-record after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden_digests.py`` and paste the printed
table over ``GOLDEN``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from shocklab.flux import AnalyticFluxSpec, approximate_pw_affine
from shocklab.scenario import PRESETS, preset, random_steps, run_scenario
from shocklab.tracking import advance, init_state

# (flux kind, lo, hi, mesh, jumps, data lo, data hi, seed)
RANDOM_SUITE = {
    "burgers_k60_s0": ("burgers", -3.0, 3.0, 0.05, 60, -1.0, 1.0, 0),
    "burgers_k60_s1": ("burgers", -3.0, 3.0, 0.05, 60, -1.0, 1.0, 1),
    "burgers_k200_s7": ("burgers", -3.0, 3.0, 0.05, 200, -1.0, 1.0, 7),
    "burgers_k400_s3": ("burgers", -3.0, 3.0, 0.05, 400, -1.0, 1.0, 3),
    "neg_cubic_k80_s2": ("neg_cubic", -3.0, 3.0, 0.05, 80, -1.5, 2.5, 2),
    "double_well_k80_s4": ("double_well", -3.2, 3.2, 0.05, 80, -2.5, 2.5, 4),
}

# preset -> (middle data lo, hi), solved with 200 random steps of seed 3
SOLVE_SUITE = {
    "neg_cubic_ii1": (-1.5, 2.5),
    "buckley_leverett": (0.0, 0.55),
}

GOLDEN = {
    "random/burgers_k200_s7": {
        "events": "356241a61a9e2159053ead9df5994583a5de1c00fca81626bdeca937bb5785f3",
        "profile": "d67a0e2493fa58e2c7ee1d19428774f380cf36a122de2b1b3aba48a965cb0449",
        "n_events": 1550
    },
    "random/burgers_k400_s3": {
        "events": "4915428ce4d6ea24f01227af2e4ad6a54f57f806ffe143b34d6e5abb41897a32",
        "profile": "3dfe989c86f9726a7e613c31fd372b2f05def2a2052e6eea5ee811840beb09a1",
        "n_events": 3039
    },
    "random/burgers_k60_s0": {
        "events": "b783c07668357ee7fe22f4f05c073169ee22d76fa7e5f7bfb4c02b3fa85aec81",
        "profile": "6a7bf7df565544b83208d95d7bf2a8dab81b0f39284c41536a13850856e2d1c6",
        "n_events": 455
    },
    "random/burgers_k60_s1": {
        "events": "55b5ce46f8a6051515dcb2ba36dcb8f3e18ba67a9fa07599f6b96e46055822a3",
        "profile": "6f1207c1dcffa6459964bd90a0ec3664412379ad9d6dae4c17b058328a2cf138",
        "n_events": 486
    },
    "random/double_well_k80_s4": {
        "events": "778c7f57cf87891c5a75ef90c6edf02954db36e5c46e1be91d774449828ff7f2",
        "profile": "06144f3148e020546d5472bb531f73cd2cea23f7af623d44dfff9850939dd723",
        "n_events": 1156
    },
    "random/neg_cubic_k80_s2": {
        "events": "f72a55176cb7bf7a3d7c0afb18e05ad240e18e0832de6e902f19ce3f55eb955a",
        "profile": "408ccb489b421f1dec5bcbe7c720cc06da0a7856d4ee46c3d903863f6179a0de",
        "n_events": 928
    },
    "preset/buckley_leverett": {
        "events": "ebafe41b893fab3d9cb41abde95646c34d7b70ac10c67270b2252d784b0316a2",
        "profile": "1dd469e2b020c07a49116728e0dd73c77833dee2b5e11ee6cdcf52a709148e15",
        "n_events": 7,
        "report": "b84c6e87d36dfe9d25ae114cd18fdef18fba9add4615d3923e24728089e4eb21",
        "buckley_leverett_events.ndjson": "ebafe41b893fab3d9cb41abde95646c34d7b70ac10c67270b2252d784b0316a2",
        "buckley_leverett_fronts.csv": "4e1b01c0b4fdb8562db1c934c13fd933006f000fbe7f92c19c99adf0e2f4458b",
        "buckley_leverett_profile_t0.csv": "b731b8e49b558fd665380b26bd71dbd621e479ce02ca49df48b9eca57003272c",
        "buckley_leverett_profile_t10.csv": "9fb1d112c3d1d7920aa77598d9aa5a9dcc1877978dce2b69cd6d79c1e9413921",
        "buckley_leverett_profile_t2.csv": "2d754c9628ebe20718ab859f12d909aa700d9431906e34f8e4369b193258d27c"
    },
    "preset/burgers_shock": {
        "events": "d26016ee935d2c33b1cbadecd65cfa9b380aa0f22e52b8d5317c1024024c7946",
        "profile": "f2e8f489724d952ef8acbcbe8defc32894ca8d1108e8047dcfd92eefed6b1d77",
        "n_events": 37,
        "report": "76e3aa95d237286a1487997cff408948d2d7db2d54373fa316422e2d1a9ecd2f",
        "burgers_shock_events.ndjson": "d26016ee935d2c33b1cbadecd65cfa9b380aa0f22e52b8d5317c1024024c7946",
        "burgers_shock_fronts.csv": "069668dc02a2611383019c5d0d208569d7032036be0b77b734e8ec2972e3f1f6",
        "burgers_shock_profile_t0.csv": "0a5b57aa7da92b2ae2c04b89064dac8b6227988d7bbb35392c7a79a6e8516112",
        "burgers_shock_profile_t1.csv": "6871b9f3465fb72f269b5c4bb9a7498f62eaed14948753c998cca3d296096daa",
        "burgers_shock_profile_t20.csv": "e77fe50f147c7e1d677f1b9bb3ac66b48624e5bb8d6f3ae483cae04f7aef5a33",
        "burgers_shock_profile_t5.csv": "61cf6615ab8a1d9da114a792b69489e6edbf9111bd5fe26ec9127a88c88b4056"
    },
    "preset/counterexample_1": {
        "events": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "profile": "687add0ea776d6120813daf262cec494f5922e54cd6b2d4f9db601bbc71c8ddf",
        "n_events": 0,
        "report": "b80ce66ba098b8ecb1e766534c1d1bab3371881ca2602a74536d2f9b01cf5c23",
        "counterexample_1_events.ndjson": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "counterexample_1_fronts.csv": "91239d144dbf9795430f9aed071c8ee578925eb2e85400078ee2044582c32d6a",
        "counterexample_1_profile_t0.csv": "4ae6e63560f9b51b13fc1e3e1d4b15e8c7cb962261a0e655bd84927d995f65bc",
        "counterexample_1_profile_t100.csv": "4ae6e63560f9b51b13fc1e3e1d4b15e8c7cb962261a0e655bd84927d995f65bc",
        "counterexample_1_profile_t25.csv": "4ae6e63560f9b51b13fc1e3e1d4b15e8c7cb962261a0e655bd84927d995f65bc",
        "counterexample_1_profile_t50.csv": "4ae6e63560f9b51b13fc1e3e1d4b15e8c7cb962261a0e655bd84927d995f65bc"
    },
    "preset/counterexample_2": {
        "events": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "profile": "6b4c3e1b837e78b11e61fe8de9ba4a83234c7810bce8e38b11b0ddd4ee96c533",
        "n_events": 0,
        "report": "f65f5fdca5ad3a1e7547080050e4b8cda504ded8097e1918560b01dbccbeb0e0",
        "counterexample_2_events.ndjson": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "counterexample_2_fronts.csv": "6e32063f4aa6140bba7a2d014d5a3924443400e176bb8770ded1d7f378d025c7",
        "counterexample_2_profile_t0.csv": "13c702410ba11904cf9599fbd06a6d2db7fef37ddafc3818ba80ec8de02965bf",
        "counterexample_2_profile_t100.csv": "47487c8babc6f173e30817a27545c9e00aa7ff068d357897596d45bb951593bd",
        "counterexample_2_profile_t25.csv": "5672bb5b5b67933aa512f53b2dfca1dece784514a318eb8d91c45a8457e5c799",
        "counterexample_2_profile_t50.csv": "355d6269eb12356a2fcdebbe83e95b7bfe2f580d2af57c9ea59f4dfcdf54d51f"
    },
    "preset/double_well_i": {
        "events": "07f47d1406ea28c207e686f6c8c0ae0e0b00cf1aada841ac4d64b36224e770bf",
        "profile": "a3f6b308301f868be1612e702bb0f827a7d60ce1b8e8eeacecdd4a9436093f86",
        "n_events": 47,
        "report": "450b0809a99b29b3de6096f3175a3946172b975e967fcdd3df622909e66b7863",
        "double_well_i_events.ndjson": "07f47d1406ea28c207e686f6c8c0ae0e0b00cf1aada841ac4d64b36224e770bf",
        "double_well_i_fronts.csv": "c66fd30bbdf6584ff897829572fb6d1331abb8d12c4fc7c20550bc67a743f0f1",
        "double_well_i_profile_t0.csv": "fa67c0b3af00586d2305660788207bccbcb44861d0899df706361a9240c029d0",
        "double_well_i_profile_t1.csv": "ff9d153ef546cff18cece418c3ce0de2bcd2948ff28d7978fcc7aa1c84b0cb0e",
        "double_well_i_profile_t5.csv": "ff9d153ef546cff18cece418c3ce0de2bcd2948ff28d7978fcc7aa1c84b0cb0e"
    },
    "preset/neg_cubic_ii1": {
        "events": "f65bba10e80325632e412c99ef97357640644589cd8851c21761d68d9f2af6e5",
        "profile": "07b97fb7a2e8e2dbcc659da961f9b30b3d78383b34cbb17f4c34646ffb9bdf7a",
        "n_events": 33,
        "report": "6eec117390960722c9b61f35f5558c0bbadda6a1ea46a01c640deec97dcba963",
        "neg_cubic_ii1_events.ndjson": "f65bba10e80325632e412c99ef97357640644589cd8851c21761d68d9f2af6e5",
        "neg_cubic_ii1_fronts.csv": "a3e55dc345ac33e57631685ba452f20565792aae0ca81a5a040b3c929d6c66dd",
        "neg_cubic_ii1_profile_t0.csv": "d6d5a2770dcdf0919f8abe00334c417a78bf6c10722ad5c7b50cfa8862bd54f6",
        "neg_cubic_ii1_profile_t1.csv": "a62a35175af6d0d2aff42f011cbc49a7d598fad320ac7f0f9eff1658e6e44d2f",
        "neg_cubic_ii1_profile_t5.csv": "acb8f4acbe938633974ec4769b14f9f46e408f3d4b57f64f5b51c3b253face0d"
    },
    "solve/buckley_leverett": {
        "report": "d0af582f24b97a8a0ccede0e5000af603a916e71f2e2a7d413c6c95f51315275",
        "buckley_leverett_events.ndjson": "04e882580cece8bfe71ddb0cec9dfde9b378bc67f7447fa8ec454b51e4099357",
        "buckley_leverett_fronts.csv": "cb5d476c055573ebb5ee41cc0be1f6030f24f7d10c85d8cacab8eca2d09de295",
        "buckley_leverett_profile_t0.csv": "25c4084d3ee2839b1d4ee76bbb728162dafda3d9571fc32b210f33c2347d7326",
        "buckley_leverett_profile_t10.csv": "70c62b1161295b9ce260d8d04aad75b0fd45dc7c5db19ea0706bac15e04ff398",
        "buckley_leverett_profile_t2.csv": "1519347f4bdd9ef29ead60842a53e836a9a4f17f97f7f68112ba568c14eec79c"
    },
    "solve/neg_cubic_ii1": {
        "report": "1da2e581ae7ba1e79e557f9f3d22de2603f1c4c1a8ea21843b7734ed2ef0f9e9",
        "neg_cubic_ii1_events.ndjson": "152776bec6a3f7b4fda519a54a2f43ccdd87c46bd1ba9f975915dbb1a3196b68",
        "neg_cubic_ii1_fronts.csv": "6691bdda269fe045a065f15cd2acfb96e2c1dcac3b2057cab34cc81937e75cb1",
        "neg_cubic_ii1_profile_t0.csv": "474b37a468a7fa0dc8e22d7cadcbbc7272148043be267366cf931b166be3f983",
        "neg_cubic_ii1_profile_t1.csv": "b4488e29009a61ab9084d68626b0e708495229e12a9112e6aae288942a524bb3",
        "neg_cubic_ii1_profile_t5.csv": "06d68cb916a1cc8bd3a5752dd21da059ca88e409d649c07d9d7c662a573bcb98"
    }
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _log_digest(state) -> str:
    return _sha("".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in state.event_log))


def random_case(name: str) -> dict:
    kind, lo, hi, h, k, dlo, dhi, seed = RANDOM_SUITE[name]
    fl = approximate_pw_affine(AnalyticFluxSpec(kind, lo, hi, h))
    state = init_state(fl, random_steps(k, dlo, dhi, seed, 0.0, float(k)))
    profile = advance(state, 10.0 * k)
    return {
        "events": _log_digest(state),
        "profile": _sha(json.dumps(profile.to_json())),
        "n_events": state.events_processed,
    }


def artifact_digests(s, tmp_dir) -> dict:
    """The report without its meta, and every other artifact run_scenario writes."""
    report = run_scenario(s, tmp_dir)
    report.pop("meta")
    out = {"report": _sha(json.dumps(report, sort_keys=True, indent=2))}
    for path in sorted(tmp_dir.iterdir()):
        if not path.name.endswith("_report.json"):
            out[path.name] = _sha(path.read_text())
    return out


def solve_case(name: str, tmp_dir) -> dict:
    s = preset(name)
    lo, hi = SOLVE_SUITE[name]
    s = dataclasses.replace(s, ubar=random_steps(200, lo, hi, 3, s.A, s.B))
    return artifact_digests(s, tmp_dir)


def preset_case(name: str, tmp_dir) -> dict:
    s = preset(name)
    state = init_state(s.flux, s.initial_data())
    profile = advance(state, s.t_max)
    return {
        "events": _log_digest(state),
        "profile": _sha(json.dumps(profile.to_json())),
        "n_events": state.events_processed,
        **artifact_digests(s, tmp_dir),
    }


@pytest.mark.parametrize("name", sorted(RANDOM_SUITE))
def test_random_suite_digests(name):
    assert random_case(name) == GOLDEN[f"random/{name}"]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_digests(name, tmp_path):
    assert preset_case(name, tmp_path) == GOLDEN[f"preset/{name}"]


@pytest.mark.parametrize("name", sorted(SOLVE_SUITE))
def test_random_middle_solve_digests(name, tmp_path):
    assert solve_case(name, tmp_path) == GOLDEN[f"solve/{name}"]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    table = {f"random/{n}": random_case(n) for n in sorted(RANDOM_SUITE)}
    for n in sorted(PRESETS):
        with tempfile.TemporaryDirectory() as d:
            table[f"preset/{n}"] = preset_case(n, Path(d))
    for n in sorted(SOLVE_SUITE):
        with tempfile.TemporaryDirectory() as d:
            table[f"solve/{n}"] = solve_case(n, Path(d))
    print("GOLDEN = " + json.dumps(table, indent=4))
