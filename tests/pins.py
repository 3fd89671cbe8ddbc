"""Every pinned run and the sha256 of each file it writes: the one home of
bansim's pinned output bytes.

A row is one run: its experiment, its config and the digest of every file
``bansim <experiment> --config <config> --out DIR`` writes into DIR.  The
config is a file under ``configs/`` or ``tests/fixtures/`` (a ``Path``), an
inline text (a ``str``), or an operation of perfbench's ``link_montecarlo``
workload at seed 1 (an ``Op``).  The row of a config file takes the file's
stem, which names its golden directory under ``tests/fixtures/golden/``.
``test_acceptance.py``'s criterion 11 runs every row.  A row changes only
with a declared output change whose cause CHANGES.md names.
"""

import importlib.util
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Op(NamedTuple):
    """An operation of ``perfbench/workloads.generate("link_montecarlo", 1, ...)``."""
    name: str


class Run(NamedTuple):
    id: str
    experiment: str
    config: Path | str | Op
    digests: dict[str, str]


def config_file(run: Run, work_dir: Path) -> Path:
    """The run's config as a file, written into ``work_dir`` unless it is one."""
    if isinstance(run.config, Path):
        return run.config
    if isinstance(run.config, Op):
        spec = importlib.util.spec_from_file_location(
            "workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        [op] = [op for op in workloads.generate("link_montecarlo", 1, str(work_dir))
                if op["name"] == run.config.name]
        return Path(op["config"])
    path = work_dir / f"{run.id}.cfg"
    path.write_text(run.config)
    return path


def _shipped(path: str, experiment: str, digests: dict[str, str]) -> Run:
    return Run(Path(path).stem, experiment, ROOT / path, digests)


def _dse_cma(extra: str = "") -> str:
    return ("[common]\nseed = 3\n[cma_convergence]\nscheme = QAM8\n"
            f"variant = DSE_CMA\nmu = 0.00005\n{extra}iterations = 2000\nwindow = 100\n")


def _mud(extra: str) -> str:
    return ("[common]\nseed = 3\n[mud_compare]\nsymbols = 2000\ntraining = 200\n"
            + extra)


RUNS = [
    # the shipped configs and the indoor fixture; their CSVs have goldens
    _shipped("configs/ber_sweep.cfg", "ber_sweep", {
        "ber_sweep.csv": "ba7dba3d7a4e59694cd20d195a661012c4ccb897f002855fc15ff3199938fca5",
        "ber_sweep.svg": "76df4fddbc9fa5ae555c6cefb4a54bdc86138da32df568752bcd04f9db7a4f4e",
    }),
    _shipped("configs/channel_stats.cfg", "channel_stats", {
        "channel_stats.csv": "6e47beb23e32cfba0b3524f32d363ecf48f41d415c66b2b0b511e9de482941a4",
    }),
    _shipped("configs/doa_hist.cfg", "doa_hist", {
        "doa_hist.csv": "40374db66048296df14bfc044235e2e6079cb880ac214a34afc946d73c69a448",
        "doa_hist.svg": "6bfabbbab0358d95d7e7a559852c72e5ea1344d797d0881a7aadfecf5769be89",
    }),
    _shipped("configs/cma_convergence_qam8.cfg", "cma_convergence", {
        "cma_summary.csv": "9d2e43f00a8c568f0c248409f5a9b69debd97fb4c2b6dbcd3da0064bf303fc4c",
        "cma_trace.csv": "4cbcae03d20a1695a5a87283d01e45dee1db203783760288f806080cf2cd5707",
        "cma_trace.svg": "543deb29bc2166de23f5600e47d8bcf840caf491b1400894302eab211149f0cb",
    }),
    _shipped("configs/cma_convergence_qam16.cfg", "cma_convergence", {
        "cma_summary.csv": "a08ffbc79d75f901b4cddb3ab65ad24db5583b60c090d70761d127eee4900dc5",
        "cma_trace.csv": "5e05ab09f14f53b2d23806bda156aecd6d30cac3e2ee582e91a599d538d3a778",
        "cma_trace.svg": "7567c47b6e9baa1a235abec1ba257cc85a0f8cab7cce9ec97077d9988faf20d1",
    }),
    _shipped("configs/mud_compare.cfg", "mud_compare", {
        "mud_compare.csv": "124682e11f985123bef80ebcd215660fee4e313542ce19f58f9f34e380daf035",
    }),
    _shipped("configs/la_sim.cfg", "la_sim", {
        "la_trace.csv": "5b1952b9568fcbd9f43080abe794c90de0dd0624c3b6ce701bbc78ef5e5f4758",
    }),
    _shipped("configs/broadcast_sim.cfg", "broadcast_sim", {
        "broadcast_compare.csv": "ddcb3ddb5623aaabeb9e94e8129532e8a8b9420764aa71db3d51d761aa3f1dd2",
    }),
    # the indoor model: reflection clusters, every fading term and shadowing
    _shipped("tests/fixtures/channel_stats_indoor.cfg", "channel_stats", {
        "channel_stats.csv": "3380735b4e380bacc372706a6f246fe4291450b7b108b81095612939e4c7b541",
    }),
    # the link_montecarlo workload's BER sweeps and channel draws (1500
    # outdoor and 600 indoor), and an indoor run with every fading term on
    Run("ber_qam16", "ber_sweep", Op("ber_qam16"), {
        "ber_sweep.csv": "79206163d4cbc1796ed2305b249a47588b8d0c16fc5cf01be0aee15865675086",
        "ber_sweep.svg": "9c76e3cf3246e85f7ff0d92ef0aa7c8d282d1082a71e45ee0dbf72adb92550f0",
    }),
    Run("ber_qam8", "ber_sweep", Op("ber_qam8"), {
        "ber_sweep.csv": "c7103faec433ca98acdd0058586b6d00fd3dfaad6510db97024223c5d7c58f1d",
        "ber_sweep.svg": "d8671c613ede8536e8578e6232678432f3d4ca884f2bdbb35c1d4baf4d2d85b0",
    }),
    Run("channel_outdoor", "channel_stats", Op("channel_outdoor"), {
        "channel_stats.csv": "ede741e624799749c5145d3db735727a4da9f37d95c06ed1a8dfcc7c8f50a75a",
    }),
    Run("channel_indoor", "channel_stats", Op("channel_indoor"), {
        "channel_stats.csv": "4711a488e3a664eddfdbdd06c9c8a533e8d98d11cc8d65d4e6cb9dd3ade16b6f",
    }),
    Run("indoor_fading", "channel_stats",
        "[common]\nseed = 5\n[channel_stats]\nmodel = indoor_ban\ndraws = 200\n"
        "num_clusters = 4\n[ban]\nsigma_ray_db = 3.0\nsigma_cluster_db = 2.0\n"
        "shadowing_sigma_db = 4.0\n", {
        "channel_stats.csv": "0f3ec9d5b53a3b9aced7bc0678b8a307efeaf105a747ea91690124e1cf3b1a5c",
    }),
    # receiver runs no shipped config makes: the receivers workload's DSE-CMA
    # run (its summary's delay is 1), blind runs at one and two samples per
    # symbol, and mud_compare at ns 1, with no feedback taps, and at ns 3
    # with one
    Run("dse_cma_qam8", "cma_convergence", _dse_cma(), {
        "cma_summary.csv": "dc93b242b3f18fff7d6c274dd083b5441e245cbcbb06a315e54792b22714cc46",
        "cma_trace.csv": "a86d2484234ddaa8a7529c995fd94eea79a387a3568c1d6f99e8a5868b95b67b",
        "cma_trace.svg": "c11fff78d0ea8551a295d2252e2e15ce9343e3f62fecaa12e5851a5d291fc65b",
    }),
    Run("cma_sps1", "cma_convergence",
        "[common]\nseed = 3\n[cma_convergence]\nscheme = QAM16\n"
        "samples_per_symbol = 1\niterations = 2000\nwindow = 100\n", {
        "cma_summary.csv": "4db27a87f3f183131bd17af31cdade2c60db2d8c042bb46012d27433e60875d6",
        "cma_trace.csv": "c04ff79c32e6608039aa51c332a6c2c9fce7506154e33cb20465f95278fdd67f",
        "cma_trace.svg": "02386da9652441b34827e12879ea5e442b94edbe5e77112c3d9dcfa3d73787fb",
    }),
    Run("dse_cma_qam8_sps2", "cma_convergence", _dse_cma("samples_per_symbol = 2\n"), {
        "cma_summary.csv": "52052d0acc9bf7937468bf658fc0a40389a55e6046c0b83b68d0d5ed2547caba",
        "cma_trace.csv": "07ddfa1e536455707c85439ee5b39e2bc76522f4e1cecc94069fa3f7d5168aa0",
        "cma_trace.svg": "77c3c8d41d64a4a8f403ef9e78fb72a917722ad5849f66bab6193966cea589aa",
    }),
    Run("mud_ns1", "mud_compare", _mud("ns = 1\n"), {
        "mud_compare.csv": "36958b01973c3270a26bba1844044adc6eb9736c631ac97906db7140e764c880",
    }),
    Run("mud_nb0", "mud_compare", _mud("nb = 0\n"), {
        "mud_compare.csv": "8115245a57dcb50397036458e3dbf82845f8e4b49f150511e5e096b1e64abaca",
    }),
    Run("mud_ns3_nb1", "mud_compare", _mud("ns = 3\nnb = 1\n"), {
        "mud_compare.csv": "dee0e723b7d0182dd76d21f1eeb948173d4b39a6f754a111fdf8ea03645c5561",
    }),
    # paths no shipped config runs: la_sim with shadowing and more rounds
    # than its failure window, a one-bin DOA histogram (a flat plot in x and
    # y), and broadcast_sim on a seed of two 32-bit words over a topology
    # whose edge lines end in comments
    Run("la_shadowed", "la_sim",
        "[common]\nseed = 7\n[la_sim]\nrounds = 40\nwindow = 8\nsigma_db = 4.0\n", {
        "la_trace.csv": "3d3c24dd184e899eaa8f448e12a32d6f88eba250e3f99aaea9e4c413597c62f7",
    }),
    Run("doa_one_bin", "doa_hist",
        "[common]\nseed = 2\n[doa_hist]\ncount = 1000\nbins = 1\n", {
        "doa_hist.csv": "a3f6d41be9c290f7d79eb90afd4eebc35c7d878fc4de5726a8f1aa42147b9be6",
        "doa_hist.svg": "8876ff2d6a44ac8964e22b8807fc7e92804d7cb61583dd35bfe7d93ea98d6333",
    }),
    Run("broadcast_two_word_seed", "broadcast_sim",
        "[common]\nseed = 4294967296\n[broadcast_sim]\n"
        "topology = tests/fixtures/topology_notes.txt\ntrials = 20\n", {
        "broadcast_compare.csv":
            "d7ff88062cda6c3125fa6ca30d18693903e22d76eaefe853493e582566898b26",
    }),
]
RUN = {run.id: run for run in RUNS}
