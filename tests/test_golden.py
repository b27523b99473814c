"""Golden digests of the CSV outputs, and the text the theory commands print.

Each rounds case pins the SHA-256 of `write_rounds_csv` output for one
(protocol, config) run, and of the run's full per-round metrics. The sweep
cases pin `summary.csv`, `improvements.csv` and a landscape CSV. The
`theory` and `verify` cases pin their standard output as text, and the two
landscape CSVs `verify` writes as digests. A change to the simulator that
keeps its outputs must keep these; one that changes floats on purpose
re-baselines them once and says so in CHANGES.md.
"""

import hashlib

import pytest

from eerpms import ExperimentSpec, NetworkConfig, Protocol, run_experiment, run_simulation
from eerpms.cli import main
from eerpms.experiments import write_rounds_csv

E, R, C = Protocol.EERPMS, Protocol.RLEACH, Protocol.CRPFCM
AUTO = dict(node_count=60, seed=4, k_clusters=None, ring_radius_m=None)
TINY = dict(node_count=3, seed=5, initial_energy_j=0.01)
# Large deployments: more occupied bins than the N=100 cases, so the bat's
# segment table has up to min(N, bins) + 1 ranks; 0.1 J makes every node die
# within 300 rounds, so each run reclusters 80-125 times. CRPFCM at N=1000
# reruns FCM on every death; RLEACH's last death there comes at round 343.
LARGE = dict(seed=1, max_rounds=300, initial_energy_j=0.1)

GOLDEN = [
    ("paper-seed1", E, dict(seed=1),
     "0af13de81ba49745a32af44a7080a46c7250124fb071c1c53d201747b181de57",
     "8cad39405893ee4aa812338199ca938445988e9fba7eff986657ef7f2054f834"),
    ("paper-seed1", R, dict(seed=1),
     "6639bf1bd1095bb3ca370e9cebf08befee3167ca0cb0c8affe52501637b04bbf",
     "8f172126e7259067785110d95db57f7ed663cb821d615be9d9f546fb6da17f54"),
    ("paper-seed1", C, dict(seed=1),
     "9998e327c17d986ec09a51c474b5b4c72f002842144b6fe3c1c767712d33ddec",
     "e3e80c1424343b6a89f71f12a600ce749e0eb0559f3102131516a3bf0ec58e83"),
    ("paper-seed2", E, dict(seed=2),
     "402844b4381240b8fd6070ee50ddec266c6340ef4c6e447a5cb2b64af09f7865",
     "f984cbce79eb8b99ecb0764f7dc097efb89adca2ee394e88f1b73a29b4623206"),
    ("paper-seed2", R, dict(seed=2),
     "b67b3e9c1e7178eeacd6ff2a576f6fa21241908f18eaf8916521d430afe43940",
     "788e444743c91e2108335ec3a5d00465a6100485448eba499b042b8e1d3f24a2"),
    ("paper-seed2", C, dict(seed=2),
     "1a514133dffc5a7b714be1add7a2d3bdc26042c48c22a654fb00b51a43b352f5",
     "0335e1dbb848b9523ae5ef8d93872a3018936c44f2532c47b967bf9ff1062eae"),
    ("paper-seed3", E, dict(seed=3),
     "de1fa76c8e570163677491f8626179d03fd7b5b6c087e8e1e904720cd131369b",
     "7ee5c230f7a2307dab7c99b5937f1a8ac806cfb548df7484f03cd1a54a564eea"),
    ("paper-seed3", R, dict(seed=3),
     "ebde1575d135e0fe51427fa2c3ed6a63907bbb66a53576c3d689f8a78292de7f",
     "c92c5f2ae8616ae3410a6777ff7535a58aba258ad4ec84c2208b35a59b046219"),
    ("paper-seed3", C, dict(seed=3),
     "7c206fe7a202da742e7cbeb676d4703390d2c479de307cdccab776c79f20da3a",
     "ac7324be5868fdd2d185273288305f6c637b3dd512c9c709b6f984e019348e75"),
    ("auto-n60", E, AUTO,
     "ce9fce121cb1975b081191b9230d958cd0bc80d1425256bc9d2d2eba9cf35ba8",
     "ba18f20c618f81b7daeed87cf7aec129d7add4de140b5c30433ed71c762de1ba"),
    ("auto-n60", R, AUTO,
     "03be62f17153318aa0cdeff742e0c5450043fca6e65754522382304ed1958cc4",
     "0ec21b4b58919314bb11d70e37a2c0f766fa3ee30f71217b06706f4cf86ae3a7"),
    ("auto-n60", C, AUTO,
     "227f115647c481f3a5f08a54d0cf7a85bc4be49997f84ed8a10e6487c03ad14d",
     "e35f05fef6b33d303050d3b0b794c79f639d868194bb5ebdb63e7c3c341d1298"),
    ("tiny-n3", E, TINY,
     "2fc881d7d3e683a23a9b5b1d26c115d2f3b60e3d791dd48896805f95f129f517",
     "468eee0f33144ba10441e203ae4f05f8da1c98bda1158944221b22dc1a9a5f05"),
    ("tiny-n3", R, TINY,
     "aed644784437489e909dc567dbb7a1e5deb72f7dc888ba9d19fc7372fb5490f8",
     "f5cdcefebe148ce9af00a2c475e86530b13c321bc90f4cb673c8a044e03f5a79"),
    ("tiny-n3", C, TINY,
     "2fc881d7d3e683a23a9b5b1d26c115d2f3b60e3d791dd48896805f95f129f517",
     "ea4c696599ecd58d12e417654c4f0073e9d0fdb07992236091987b207cc0228d"),
    # k = 1 for the whole run: the bat returns the empty threshold set unsearched
    ("k1-n60", E, dict(node_count=60, seed=4, k_clusters=1, initial_energy_j=0.05),
     "fb7b2fdb3e3ce2df205d177ff19bdcf9e0788ce9ed29e9d64c3a9eb0fc69647b",
     "809aa094c51310a7a561adf29cc5f4c0aa11c196db880e76d40294f593acba03"),
    ("n250-b360", E, dict(LARGE, node_count=250, bin_count=360),
     "fbbfedfa07c2b919e21afe59fecf4f34cf06fc484c419f6a9c42efd3ececec93",
     "a364644a01a31b6ba5bd5bfc52600947867ba9706ae3da498fdb1a9324ad986f"),
    ("n250-b720", E, dict(LARGE, node_count=250, bin_count=720),
     "68c86d6ef1087e617f9b64dd2490616550f8cd387f43b540ac403d5ba213af39",
     "45af9e989268d4da17469ba79c5d80689945a830ccb25a80af8c4db7e0e5f737"),
    ("n1000-b360", E, dict(LARGE, node_count=1000, bin_count=360),
     "30924a56a44ba3cf9e07b9272216d18c88f8e4e5fa3b4faf7d33a4120097302f",
     "112443d492b7d46c64eac9f4c1e92d99362d0ff4b6fd6b1bb91bb89043e2ca9f"),
    ("n1000-b720", E, dict(LARGE, node_count=1000, bin_count=720),
     "85f63737a76659feeaccfb126fe23c4171cf4a63bf60ce566f3292bd65092a14",
     "72013fd2b2a199ffc059a3fbaec072d3118e3ba23812379f2dcb01ed9ef8aecc"),
    ("n1000", R, dict(LARGE, node_count=1000, max_rounds=400),
     "0c9fd2acd8807290cdf744fad9b72d934d6924818186505ee7f835db8e06d885",
     "f7e46972f66cf3e2d84d7cb8dd09008ac35e0c7c6d75c6d0bca5fd93770b719b"),
    ("n1000", C, dict(LARGE, node_count=1000),
     "b38ab961db797a7122753d70351a1d533985a6229553fd59a3eb31e8899602d3",
     "f9a2698f78f32ae383e53996659c0ac0b264cb6613ad9cd380f09d5db6adb540"),
]


def rounds_digests(tmp_path, protocol, overrides) -> tuple[str, str]:
    """SHA-256 of the rounds CSV, and of every round's full metrics
    (`spent_j`, per-head spend, member counts and dead ids are not in the CSV)."""
    result = run_simulation(NetworkConfig(protocol=protocol, **overrides))
    assert result.lifetime.ldn_round is not None, "run must reach last death"
    path = tmp_path / "rounds.csv"
    write_rounds_csv(path, result.rounds)
    return (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(repr(result.rounds).encode()).hexdigest())


@pytest.mark.parametrize("name, protocol, overrides, csv_digest, metrics_digest", GOLDEN,
                         ids=[f"{name}-{p.value}" for name, p, *_ in GOLDEN])
def test_rounds_csv_digest(tmp_path, name, protocol, overrides, csv_digest, metrics_digest):
    assert rounds_digests(tmp_path, protocol, overrides) == (csv_digest, metrics_digest)


# 60 rounds on 0.02 J: some cells see every last death, some a part of them
# and some none, so the summary holds partial means, a zero sd and NaNs
SWEEP_BASE = NetworkConfig(node_count=30, initial_energy_j=0.02, max_rounds=60)
SWEEPS = [
    ("omega1", dict(protocols=list(Protocol), seeds=[1, 2], sweep_axis="omega1",
                    omega1_values=[0.3, 0.7]),
     {"summary.csv": "1f96e746da8d0fc38339d1d2ad9415bee9377c98a5a709c6b03c1cd67c3d85bc",
      "improvements.csv": "831ee854cbdfedb5ee87aab5c94023e28afb772a38ec4eec1d77f19a467147b9"}),
    ("k_dch_grid", dict(protocols=[], seeds=[1, 2, 3], sweep_axis="k_dch_grid",
                        k_values=[1, 5, 10], d_values=[0.0, 45.0, 90.5]),
     {"landscape_simulated.csv":
      "336949a58c2f4c372e64a8ff376235dba8b3910c98c4c5677a375c4851f54f3a"}),
]


@pytest.mark.parametrize("fields, digests", [case[1:] for case in SWEEPS],
                         ids=[case[0] for case in SWEEPS])
def test_sweep_csv_digests(tmp_path, fields, digests):
    paths = run_experiment(ExperimentSpec(base=SWEEP_BASE, output_dir=tmp_path, **fields))
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert {name: written.get(name) for name in digests} == digests


THEORY = [
    ((), """\
N = 100  R = 150 m
crossover distance d_th = 87.7058 m
K* = 9
d* = 91.74 m
minimum-energy ring radius = 91.74 m
free-space radius limit (K=9) = 164.83 m
radius within free-space limit: yes
feasible head-distance band (K=9) = [69.82, 87.71] m
d* inside feasible band: no
"""),
    (("--nodes", "1", "--radius", "50"), """\
N = 1  R = 50 m
crossover distance d_th = 87.7058 m
K* = 2
d* = 11.11 m
minimum-energy ring radius = 11.11 m
free-space radius limit (K=2) = 87.71 m
radius within free-space limit: yes
feasible head-distance band (K=2) = [0.00, 72.06] m
d* inside feasible band: yes
"""),
    (("--nodes", "250"), """\
N = 250  R = 150 m
crossover distance d_th = 87.7058 m
K* = 12
d* = 95.42 m
minimum-energy ring radius = 95.42 m
free-space radius limit (K=12) = 169.43 m
radius within free-space limit: yes
feasible head-distance band (K=12) = [66.24, 87.71] m
d* inside feasible band: no
"""),
]


@pytest.mark.parametrize("flags, expected", THEORY, ids=["defaults", "n1-r50", "n250"])
def test_theory_stdout(capsys, flags, expected):
    assert main(["theory", *flags]) == 0
    assert capsys.readouterr().out == expected


# 200 003 samples per Monte Carlo call cross 12 MC_BLOCK edges and end in a tail
VERIFY_STDOUT = """\
[thresholds] 3/3 searches within 0.99x of the exhaustive optimum (bins=36, k in 2..4)
[wedge-mc] k=9 d=0: closed=11706.93 sampled=11742.37 rel_err=0.302%
[wedge-mc] k=9 d=90: closed=1806.93 sampled=1851.36 rel_err=2.400%
[wedge-mc] k=9 d=135: closed=2931.93 sampled=2971.11 rel_err=1.319%
[wedge-mc] k=10 d=0: closed=11620.11 sampled=11624.02 rel_err=0.034%
[wedge-mc] k=10 d=90: closed=1720.11 sampled=1742.34 rel_err=1.276%
[wedge-mc] k=10 d=135: closed=2845.11 sampled=2864.13 rel_err=0.664%
[wedge-mc] k=12 d=0: closed=11507.02 sampled=11508.22 rel_err=0.010%
[wedge-mc] k=12 d=90: closed=1607.02 sampled=1615.63 rel_err=0.533%
[wedge-mc] k=12 d=135: closed=2732.02 sampled=2748.39 rel_err=0.596%
[wedge-mc] worst relative error: 2.400%
[landscape] analytic argmin: K=10 d=90.9 energy=0.0521168 J
[landscape] simulated argmin: K=9 d=90 energy=0.0519174 J (2 seeds)
[coverage] K=9 head at band lo=69.82 m: violations=0/100000
[coverage] K=9 head at band hi=87.71 m: violations=0/100000
"""
VERIFY_CSVS = {
    "landscape_analytic.csv":
    "c2690c49086ea7e7b1dd374f4ab04d2f828831565ee2d9487025d4f8a37fe78a",
    "landscape_simulated.csv":
    "c2f35f6da54adcaf02d87a03d817cffc725f2fdce227eae22f00cf5b2ed6c3f3",
}


def test_verify_stdout_and_landscapes(capsys, tmp_path):
    assert main(["verify", "--histograms", "3", "--seeds", "2", "--mc-samples", "200003",
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == VERIFY_STDOUT
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in VERIFY_CSVS} == VERIFY_CSVS
