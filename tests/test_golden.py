"""Golden outputs: sha256 digests of `umhs recover` and `umhs sweep` outputs
and of umhs() results, on small instances whose union keeps growing after
round 1 (a random graph, a mixed-size input restricted with --r) besides an
r = 2 sbm whose baselines disagree and a tree family.

A digest covers the CSV body and every '#' line except the wall times and
the eigen solvers' residual notes, which are measurements and floats of the
host's BLAS.  The version line is pinned with the version set to 'golden',
since the installed version varies.  The sweep and library digests must
also hold with the rounds split into blocks of four and the recovery's slot
budget at 256, so that 100 rounds cross several blocks and windows: each
round draws from its own SeedSequence(seed, spawn_key=(i,)) stream,
whatever the schedule.  A sweep writes every '#' line of the UMHS run that
recover writes, so recover runs the default schedule only.  A change that
moves a digest says why in CHANGES.md.
"""

import hashlib
from unittest import mock

import pytest

from umhs import UmhsConfig, random_hypergraph, umhs, uniform_subhypergraph
from umhs import cli, recovery
from umhs.dataio import write_core, write_hypergraph

SMALL_SCHEDULE = {"_BLOCK_BYTES": 1, "_CHUNK_SLOTS": 256}

# The eigen rows of the sbm instance are pinned: between a core and a
# non-core node adjacent in any of its rankings the scores differ by 0.67%
# or more, so no last-digit change can reorder them.
SBM_METHODS = "umhs,degree,k-core,clique-eigen,z-eigen,h-eigen,borgatti-everett"


def write_instance(name, graph, core):
    write_hypergraph(graph, f"{name}.edges")
    write_core(core, f"{name}.core")
    return ["--input", f"{name}.edges", "--core", f"{name}.core"]


def covered(graph):
    return {v for edge in graph.edges for v in edge}


def random_1000():
    # saturates at round 94 of 100
    graph = random_hypergraph(1000, 3, 3000, seed=1)
    return write_instance("random_1000", graph, covered(graph))


def mixed_r3():
    # sizes 2-4, restricted to its 3-uniform part, saturates at round 44
    graph = random_hypergraph(60, 4, 120, seed=3)
    return [*write_instance("mixed", graph, covered(uniform_subhypergraph(graph, 3)[0])),
            "--r", "3"]


def tree_b2_r5():
    assert cli.main(["generate", "tree", "--b", "2", "--r", "5", "--output", "tree"]) == 0
    return ["--input", "tree.edges", "--core", "tree.core"]


def sbm_r2():
    return ["--sbm", "core=10,fringe=40,r=2,p=0.3,q=0.3"]


INSTANCES = {
    "random_1000": (random_1000, "umhs,degree,k-core"),
    "mixed_r3": (mixed_r3, "umhs,degree,k-core"),
    "tree_b2_r5": (tree_b2_r5, "umhs,degree,k-core"),
    "sbm_r2": (sbm_r2, SBM_METHODS),
}

RECOVER_DIGESTS = {
    "random_1000": "8754bdb8a7bc68d23bf0f5897beafaa41f4be511ae078380208b77b50f091fc0",
    "mixed_r3": "f830d212d9daa551be4f70dc0093b484d44ce7744b8dc5ac065435b35aa6ba3a",
    "tree_b2_r5": "4d23427a21d63582efa69ccde277a55d4be47bce5e139d87eaddf6d59fe11268",
    "sbm_r2": "7f8958d3301868f3c7be6ebb5fae603419fcb2ce9585314863116edee0b4d7e7",
}

SWEEP_DIGESTS = {
    "random_1000": "4bc6a5d9d1827cb0ece67006caf873967339cbd2ed276238758b6107390f6007",
    "mixed_r3": "5a86982afb6d4659d71495bf95bb2db3facd6b9833123096aff81b0525906b67",
    "tree_b2_r5": "79cfb078ebe304b1f7d96a1496e26008fef5e1322b179ee69c44ff38631ed237",
    "sbm_r2": "89083cfe1ddbf03d3ce61357a4d487b051fa7351d12ec5507c8979649a1d278e",
}

# umhs(G, UmhsConfig(100, seed, record_trajectory=True), core): union,
# trajectory, saturation round and RoundSizes
LIBRARY_CASES = {
    "random_200": (lambda: random_hypergraph(200, 3, 400, seed=2), 5),
    "random_60": (lambda: random_hypergraph(60, 4, 120, seed=3), 9),
}

LIBRARY_DIGESTS = {
    "random_200": "f1bf5f10f2176935422c0bc423b51b1aec0b964a1a7b34b45296f3bdfc145d17",
    "random_60": "e093983eb1a43464b0a925bfb68e89263fbfe0c73a28e0e1dbb7934fea3d3911",
}


def digest(text):
    kept = [
        line for line in text.splitlines()
        if not line.startswith(("# wall_time", "# solver"))
    ]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


schedules = pytest.mark.parametrize(
    "schedule", [{}, SMALL_SCHEDULE], ids=["default", "small"]
)


def run(argv, capsys, schedule):
    with mock.patch.object(cli, "_version", lambda: "golden"), \
            mock.patch.dict(vars(recovery), schedule):
        assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", INSTANCES)
def test_recover_output(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    build, methods = INSTANCES[name]
    source = build()
    capsys.readouterr()
    out = run(["recover", *source, "--methods", methods, "--seed", "3"], capsys, {})
    assert digest(out) == RECOVER_DIGESTS[name]


@schedules
@pytest.mark.parametrize("name", INSTANCES)
def test_sweep_output(name, schedule, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    source = INSTANCES[name][0]()
    capsys.readouterr()
    out = run(["sweep", *source, "--seed", "3"], capsys, schedule)
    assert digest(out) == SWEEP_DIGESTS[name]


@schedules
@pytest.mark.parametrize("name", LIBRARY_CASES)
def test_library_result(name, schedule):
    build, seed = LIBRARY_CASES[name]
    graph = build()
    core = range(0, graph.n, 3)
    with mock.patch.dict(vars(recovery), schedule):
        result = umhs(graph, UmhsConfig(100, seed, record_trajectory=True), core)
    text = repr((sorted(result.union_set), result.trajectory,
                 result.saturation_round, result.rounds))
    assert digest(text) == LIBRARY_DIGESTS[name]
