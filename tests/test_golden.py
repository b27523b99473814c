"""Golden digests of the CSV outputs, and the text the theory commands print.

The rounds runs are pinned in two tiers:
- bytes: the SHA-256 of `write_rounds_csv` output for one (protocol, config)
  run, and of the run's full per-round metrics;
- integer events: the SHA-256 of what the run decided, per round the index,
  alive count, head count, member counts and dead ids, with no float in it.
  Every bytes case is pinned here too, and so is the default-config N=250
  EERPMS run, whose clustering has moved with last bits before.

A move of the bytes tier alone is a last-bit re-pin, declared once in
CHANGES.md. A move of the integer tier is a change of behaviour, declared
with the lifetimes of each moved run.

The sweep cases pin `summary.csv`, `improvements.csv` and a landscape CSV.
The `theory` and `verify` cases pin their standard output as text, and the
two landscape CSVs `verify` writes as digests. A change to the simulator
that keeps its outputs must keep these.
"""

import functools
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
     "7b278563beb1dd6f57cd8ddd7092ae080b9c8b4d5c229d25aeed3a70c3cc1754",
     "39407306e0517860ec16a3ca01bd6c7fb6c0cdb42836987c2dd0d2ea41387919"),
    ("paper-seed1", R, dict(seed=1),
     "3caa6299005bc80630e1fd9e20c88986f26ed524c81b8a3174094501d26df488",
     "9d1a3c68a31e16f47162cd2c81211557132b5d9d27ffcbdaadececfe909297a2"),
    ("paper-seed1", C, dict(seed=1),
     "28612c1535862725db3ba21bf6066fd18cede332b80da670a43d7d78434c2974",
     "19290f0b6675ec40c69d87852955c18347a28877dd8a22302cfd618397a8a949"),
    ("paper-seed2", E, dict(seed=2),
     "05f1994f5efea86c859fd2c899050d44097f5ef852bf72bb31a3b2ac50272da9",
     "cd3078878c90ce3f37b5bc0f38a8521c4e37f81a14c3c434b6808b01f826a1c8"),
    ("paper-seed2", R, dict(seed=2),
     "bf6ebbea83903833d6fd6489706abaebc1a68e487049e121c6879c44e44feb3b",
     "d94e8846616d7e373eccb5ff4a05b5cf34a66d964b5c8f0e4c4d74a5b1e337db"),
    ("paper-seed2", C, dict(seed=2),
     "5a22bf3d7a8a9a21f09f8e2bae61b0f8bf58456379528917498c52a701e7e898",
     "eabf2000b7b7e3c4b82721416f600922aac045b7dab724ff51e365ee72b165e9"),
    ("paper-seed3", E, dict(seed=3),
     "543aac1a5da7b32cc04f1f3c55f38bf523b1578ec0bdc750b4689bed03b51ea1",
     "8926d1f752045de6eb2190610cf8b24ca4329da0bfa9d197f02f911da790323b"),
    ("paper-seed3", R, dict(seed=3),
     "442f5839807f6b51150e5e041d91d171e591014b1317c7c4a4fcc9707004dae8",
     "09b02af4f757f5fe0835f43f1cda8a8404f0f3b07902ae8f6adc121b070d32b5"),
    ("paper-seed3", C, dict(seed=3),
     "98007d537cfd36519f4a65857b6f7a16d55f4de91653be29f0a9e7b01ac206bc",
     "fe2586d99793f9f624f09cfc0f699ff8821f361fae47a2453c3ba82f403ab209"),
    ("auto-n60", E, AUTO,
     "067b940370bbffdaf8e8242be230e78ea11b7241b894458fe2c0afdafa1e0ff4",
     "9477dbd884a6a2d32767350719ff570a36a0317f1b55a1a06a1ac1d209ae5d86"),
    ("auto-n60", R, AUTO,
     "328b4666d7c9d3cdf40d122a8639bd334a332cc7c56cc86f80cac98f5301faf4",
     "9da1e18d60127c9873e2c257dd1f22adc1abfcd16cc775e90b72a9e8979e4a3c"),
    ("auto-n60", C, AUTO,
     "73392741f06d96f56bb869b8b6dcd0264abbd7b33346d1a5723eba20d87bc58b",
     "d516d3ab3178d4afebc272591316fc5ce2a83ae6ebaebb40224f1fc7b56bad4c"),
    ("tiny-n3", E, TINY,
     "2fc881d7d3e683a23a9b5b1d26c115d2f3b60e3d791dd48896805f95f129f517",
     "468eee0f33144ba10441e203ae4f05f8da1c98bda1158944221b22dc1a9a5f05"),
    ("tiny-n3", R, TINY,
     "aed644784437489e909dc567dbb7a1e5deb72f7dc888ba9d19fc7372fb5490f8",
     "e4cd7d61e938a59d50b4374d47f9475c6951390cdc18b250db93c42a0f9d24e3"),
    ("tiny-n3", C, TINY,
     "2fc881d7d3e683a23a9b5b1d26c115d2f3b60e3d791dd48896805f95f129f517",
     "ea4c696599ecd58d12e417654c4f0073e9d0fdb07992236091987b207cc0228d"),
    # k = 1 for the whole run: the bat returns the empty threshold set unsearched
    ("k1-n60", E, dict(node_count=60, seed=4, k_clusters=1, initial_energy_j=0.05),
     "bb141715cec22e720b8e129d747e49222235f5266214989749548adc8bd44347",
     "33b147f2c1bd2c3973022c912bbcca40294eba85720f86d59769413532a4852b"),
    ("n250-b360", E, dict(LARGE, node_count=250, bin_count=360),
     "18fcf7e9b913aaede1681585887a449863a17e478f02831e211c4604ab944b85",
     "751957f97003a8c33e06504c8b204cbf9fef634babe3dbd50eb1af39f61e9cef"),
    ("n250-b720", E, dict(LARGE, node_count=250, bin_count=720),
     "9029609a7d32f503080743f8838d589b8a8dc60edc40f372bdc7d7b184cfac5d",
     "99b0baa658fa1f8881138e8c269908db7f476b9f2bd048dca45d7e95687db6fe"),
    ("n1000-b360", E, dict(LARGE, node_count=1000, bin_count=360),
     "ed4e204972ea316d62a4cde62e78639b531ca7884097dd2af492ee1acaa4691d",
     "1860eb204d9dbafcbb607fd3d9f9dccb5c6eb8018c242e82a8ecf4c1f302da43"),
    ("n1000-b720", E, dict(LARGE, node_count=1000, bin_count=720),
     "8d7073572caf5738e7ae9b38588ffd585aef2115a8a33b5d6ca04222bb9868ba",
     "a0ef6f49ed7fb66e6c241f5a4cf8ac2e60ae2e6954bbee2de550d7ac9c49e1ed"),
    ("n1000", R, dict(LARGE, node_count=1000, max_rounds=400),
     "55be4e039ccc4bf862bc88e52fa21f28df4692ef5bf4479462a98711f5f56100",
     "a5c44d09c9e35a6f9b82b085fa4ed0f6f3f2813ffbbf28dc3c871e3fb9dc5e1a"),
    ("n1000", C, dict(LARGE, node_count=1000),
     "1b77f26dc2984c1d47e43b0b1b67561575369065ff9bb83754e8456040789991",
     "0f5bac2b29e21dc9997100f0afee9911217aa9c86c03a4265a53ef2c0dc0f8fa"),
]


# test id -> (protocol, overrides) of every pinned rounds run
RUNS = {f"{name}-{p.value}": (p, overrides) for name, p, overrides, *_ in GOLDEN}
# the default config at N=250, pinned by its integer events only: a last-bit
# change of the threshold objective has moved its lifetimes before
RUNS["default-n250-EERPMS"] = (E, dict(node_count=250))

EVENT_DIGESTS = {
    "paper-seed1-EERPMS":
    "d57bf74d5b1cf509c630793adc6fdf0ab7e753da790ee23e39d581d2e0cd776b",
    "paper-seed1-RLEACH":
    "bf99dbe0ccd55e969b62713a3a0d0f76f5ad2a30c29d75fda337d89367abf513",
    "paper-seed1-CRPFCM":
    "b391986fb191b0ad16b263e4c9d2e4148962d878fe688057ac0150d6af62251a",
    "paper-seed2-EERPMS":
    "e5fd85d61f45ccf74afdaa2fef2aa486d59d58a5c38cfe9692aa793cc73521ea",
    "paper-seed2-RLEACH":
    "a9ab4dde2054e3d7ef862046b7f5a49ddc28f3a5da588fcbf906ef7cbf0da39d",
    "paper-seed2-CRPFCM":
    "3e0d66a1810b2bda460de79f3fb4d64a67dcd72d7539f513ac089b8e340913dc",
    "paper-seed3-EERPMS":
    "9bed4ca3fc04192295a18e93b25013eb2bde6914298ad59d46f531c39b07ef6b",
    "paper-seed3-RLEACH":
    "a1b7a0294c73123f54c730a478bb5eae3f4865b48863ff3f62eb95cf30136c57",
    "paper-seed3-CRPFCM":
    "e53be7613d47c496b0ddff24af8905547a13e0ab47df6f38ff1ffc9bc464bd7d",
    "auto-n60-EERPMS":
    "e643eceb4f9eb3d15213a9a727d5afdacbbe4b004181d1103b3338388c43d5c4",
    "auto-n60-RLEACH":
    "a71ebcfd8d4a4515248813b383aa5cefe77143e924aba3fa39365e9b951fa07b",
    "auto-n60-CRPFCM":
    "fb6faa22144ee81c2575a0661270fb44697e38c9fb56323d30f744054af339a5",
    "tiny-n3-EERPMS":
    "fac577703b59776f31c8817ae46ff41966c6a8075a8b1f614829512df997c48a",
    "tiny-n3-RLEACH":
    "4aa162c7a8948434c947105a649561e82c9fd39eabcf4932445523afc6eb9d3c",
    "tiny-n3-CRPFCM":
    "fac577703b59776f31c8817ae46ff41966c6a8075a8b1f614829512df997c48a",
    "k1-n60-EERPMS":
    "dcc4f1f2b3a736814d6e337cfdeb345b956450f1c1fb1b2eab2b93ae075aae7a",
    "n250-b360-EERPMS":
    "e17cb0354cde1db5b56486aba15c47725c8a944d0c6c1cb59f4bfbcffa5aa2df",
    "n250-b720-EERPMS":
    "d6cea46f52aaf09580c26cc866471b20ed5aa5ab773e6aaecf40038d271025ab",
    "n1000-b360-EERPMS":
    "5f214f34c7d3f048d777612d474f2d7c513433a4d77ce50ebd37e954c17d97eb",
    "n1000-b720-EERPMS":
    "e0e0d045df0a97218aba8c90e6f9aaef47f6300337643710a637badf9b384019",
    "n1000-RLEACH":
    "efb0cf0eb0851b68cd0fc32e7c3654887546e0ba62a74fe917b234d5357487c7",
    "n1000-CRPFCM":
    "36260c4e95953b6c1b0c88dca74dad147b23d573f323a794691cdf923ccc0929",
    "default-n250-EERPMS":
    "4ef4a625a058604f29c4825c54399353b059d0763c3d190e47484a7849d2825c",
}


@functools.cache
def simulate(run_id):
    """The run's per-round metrics, simulated once per test session."""
    protocol, overrides = RUNS[run_id]
    result = run_simulation(NetworkConfig(protocol=protocol, **overrides))
    assert result.lifetime.ldn_round is not None, "run must reach last death"
    return result.rounds


def rounds_digests(tmp_path, run_id) -> tuple[str, str]:
    """SHA-256 of the rounds CSV, and of every round's full metrics
    (`spent_j`, per-head spend, member counts and dead ids are not in the CSV)."""
    rounds = simulate(run_id)
    path = tmp_path / "rounds.csv"
    write_rounds_csv(path, rounds)
    return (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(repr(rounds).encode()).hexdigest())


def event_digest(rounds) -> str:
    """SHA-256 of the integer events of every round."""
    events = [(m.round_index, m.alive_count, m.ch_count, m.member_counts, m.dead_node_ids)
              for m in rounds]
    return hashlib.sha256(repr(events).encode()).hexdigest()


@pytest.mark.parametrize("name, protocol, overrides, csv_digest, metrics_digest", GOLDEN,
                         ids=[f"{name}-{p.value}" for name, p, *_ in GOLDEN])
def test_rounds_csv_digest(tmp_path, name, protocol, overrides, csv_digest, metrics_digest):
    assert rounds_digests(tmp_path, f"{name}-{protocol.value}") == (csv_digest, metrics_digest)


@pytest.mark.parametrize("run_id", RUNS)
def test_rounds_event_digest(run_id):
    assert event_digest(simulate(run_id)) == EVENT_DIGESTS[run_id]


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
      "827311e4b60cf1266a13e50031fc013a585d35a2eeb17dbad482541e3e43b8df"}),
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
    "da641c03a380db5e57170aa3515bf9ab3782686bd7684d3d81045481dc908356",
}


def test_verify_stdout_and_landscapes(capsys, tmp_path):
    assert main(["verify", "--histograms", "3", "--seeds", "2", "--mc-samples", "200003",
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == VERIFY_STDOUT
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in VERIFY_CSVS} == VERIFY_CSVS
