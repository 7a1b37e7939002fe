"""Unit tests for the four OCB transaction types and the generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.despy import RandomStream
from repro.ocb import (
    Database,
    HierarchyTraversal,
    OCBConfig,
    Schema,
    SetOrientedAccess,
    SimpleTraversal,
    StochasticTraversal,
    TransactionGenerator,
)
from repro.ocb.transactions import _traced


def build(config: OCBConfig, seed: int = 1) -> Database:
    rng = RandomStream(seed, "dbgen")
    return Database.generate(Schema.generate(config, rng), rng)


@pytest.fixture(scope="module")
def db():
    return build(OCBConfig(nc=10, no=800))


class TestSetOrientedAccess:
    def test_visits_each_object_once(self, db):
        trace = SetOrientedAccess.trace(db, root=0, depth=3)
        assert len(trace) == len(set(trace))

    def test_root_first(self, db):
        assert SetOrientedAccess.trace(db, root=5, depth=2)[0] == 5

    def test_depth_zero_is_root_only(self, db):
        assert SetOrientedAccess.trace(db, root=5, depth=0) == [5]

    def test_breadth_first_order(self, db):
        """Level-1 objects (direct refs) come right after the root."""
        trace = SetOrientedAccess.trace(db, root=0, depth=2)
        direct = [t for t in db.refs(0) if t != 0]
        k = len(dict.fromkeys(direct))
        level1 = trace[1 : 1 + k]
        assert set(level1) == set(direct)

    def test_deeper_is_monotonically_larger(self, db):
        sizes = [
            len(SetOrientedAccess.trace(db, root=0, depth=d)) for d in range(4)
        ]
        assert sizes == sorted(sizes)


class TestSimpleTraversal:
    def test_reaccesses_objects(self, db):
        # Depth-first without dedup: on shared references, objects repeat.
        # Find some root where repetition occurs within depth 3.
        repeated = any(
            len(SimpleTraversal.trace(db, root, 3))
            > len(set(SimpleTraversal.trace(db, root, 3)))
            for root in range(50)
        )
        assert repeated

    def test_depth_zero_is_root_only(self, db):
        assert SimpleTraversal.trace(db, root=7, depth=0) == [7]

    def test_matches_recursive_definition(self, db):
        def recursive(oid, depth):
            order = [oid]
            if depth > 0:
                for target in db.refs(oid):
                    order.extend(recursive(target, depth - 1))
            return order

        for root in (0, 13, 99):
            assert SimpleTraversal.trace(db, root, 3) == recursive(root, 3)

    def test_length_formula_for_uniform_fanout(self):
        """On a synthetic 2-regular graph the DFS size is 2^(d+1)-1."""
        config = OCBConfig(nc=2, no=64, maxnref=2, hotn=1)
        db_small = build(config, seed=3)
        # force exactly 2 refs per class by regenerating until true
        for root in range(4):
            trace = SimpleTraversal.trace(db_small, root, 2)
            refs = len(db_small.refs(root))
            assert len(trace) >= 1 + refs


class TestHierarchyTraversal:
    def test_follows_only_given_type(self, db):
        trace = HierarchyTraversal.trace(db, root=0, depth=5, ref_type=0)
        # Every non-root object must be reachable through type-0 edges.
        reachable = {0}
        frontier = [0]
        for __ in range(5):
            frontier = [
                t
                for oid in frontier
                for t in db.refs_of_type(oid, 0)
                if t not in reachable and not reachable.add(t)
            ]
        assert set(trace) <= reachable | {0}

    def test_no_duplicates(self, db):
        trace = HierarchyTraversal.trace(db, root=3, depth=5, ref_type=0)
        assert len(trace) == len(set(trace))

    def test_type_without_edges_stops_at_root(self, db):
        # find an object with no refs of type 2
        for oid in range(100):
            if not db.refs_of_type(oid, 2):
                assert HierarchyTraversal.trace(db, oid, 5, 2) == [oid]
                return
        pytest.skip("no object without type-2 refs in sample")


class TestStochasticTraversal:
    def test_walk_length_is_depth_plus_one(self, db):
        rng = RandomStream(5, "walk")
        trace = StochasticTraversal.trace(db, root=0, depth=50, rng=rng)
        assert len(trace) == 51  # root + 50 steps (refs never empty here)

    def test_each_step_follows_a_reference(self, db):
        rng = RandomStream(6, "walk")
        trace = StochasticTraversal.trace(db, root=0, depth=20, rng=rng)
        for prev, cur in zip(trace, trace[1:]):
            assert cur in db.refs(prev)

    def test_reproducible_walks(self, db):
        a = StochasticTraversal.trace(db, 0, 30, RandomStream(9, "w"))
        b = StochasticTraversal.trace(db, 0, 30, RandomStream(9, "w"))
        assert a == b


class TestTransactionGenerator:
    def test_mix_respects_probabilities(self, db):
        config = db.config.with_changes(hotn=4000)
        gen = TransactionGenerator(db, config, RandomStream(1, "wl"))
        counts = {"set": 0, "simple": 0, "hierarchy": 0, "stochastic": 0}
        for txn in gen.transactions(4000):
            counts[txn.kind] += 1
        for kind, count in counts.items():
            assert count / 4000 == pytest.approx(0.25, abs=0.03), kind

    def test_pure_mix(self, db):
        config = db.config.with_changes(
            pset=0.0, psimple=0.0, phier=1.0, pstoch=0.0
        )
        gen = TransactionGenerator(db, config, RandomStream(2, "wl"))
        assert all(t.kind == "hierarchy" for t in gen.transactions(50))

    def test_traces_nonempty_and_in_range(self, db):
        gen = TransactionGenerator(db, db.config, RandomStream(3, "wl"))
        for txn in gen.transactions(200):
            assert len(txn) >= 1
            assert all(0 <= oid < len(db) for oid in txn.objects)
            assert txn.accesses[0][0] == txn.root

    def test_read_only_by_default(self, db):
        gen = TransactionGenerator(db, db.config, RandomStream(4, "wl"))
        assert all(t.writes == 0 for t in gen.transactions(100))

    def test_pwrite_generates_writes(self, db):
        config = db.config.with_changes(pwrite=0.5)
        gen = TransactionGenerator(db, config, RandomStream(5, "wl"))
        total_writes = sum(t.writes for t in gen.transactions(100))
        assert total_writes > 0

    def test_hierarchy_only_workload(self, db):
        gen = TransactionGenerator(db, db.config, RandomStream(6, "wl"))
        txns = list(gen.hierarchy_only(100, ref_type=0, depth=3))
        assert len(txns) == 100
        assert all(t.kind == "hierarchy" for t in txns)
        # A hot root region repeats roots, so a phase reuses its draws;
        # the reference draws every transaction afresh.
        for pwrite in (0.0, 0.3):
            config = db.config.with_changes(pwrite=pwrite, root_region=20)
            shared = TransactionGenerator(db, config, RandomStream(6, "wl"))
            drawn = list(shared.hierarchy_only(100, ref_type=0, depth=3))
            reference = TransactionGenerator(db, config, RandomStream(6, "wl"))
            expected = []
            for __ in range(100):
                root = reference.next_root()
                oids = HierarchyTraversal.trace(db, root, 3, 0)
                # Read-only traces draw no write flags.
                draw = reference.rng.bernoulli
                accesses = tuple((oid, pwrite > 0 and draw(pwrite)) for oid in oids)
                expected.append(("hierarchy", root, accesses))
            assert [(t.kind, t.root, t.accesses) for t in drawn] == expected
            assert shared.generated == len(expected)
            assert shared.next_root() == reference.next_root()
            assert shared.rng.random() == reference.rng.random()
            first_draw = {}
            for txn in drawn:
                first_draw.setdefault(txn.root, txn)
            assert len(first_draw) < len(drawn)
            if pwrite == 0.0:
                assert all(txn is first_draw[txn.root] for txn in drawn)

    def test_hierarchy_only_shares_draws_within_one_call_only(self, db):
        # Churn between two hierarchy phases changes the graph; the next
        # phase traces the new graph instead of reusing the last one's draws.
        graph = db.clone()
        config = db.config.with_changes(root_region=20)
        gen = TransactionGenerator(graph, config, RandomStream(6, "wl"))
        before = {t.root: t for t in gen.hierarchy_only(100, ref_type=0, depth=3)}
        root, victim = next(
            (t.root, t.objects[-1]) for t in before.values() if len(t.objects) > 1
        )
        graph.delete_object(victim)
        after = list(gen.hierarchy_only(100, ref_type=0, depth=3))
        assert root in {t.root for t in after}
        for txn in after:
            assert txn is not before.get(txn.root)
            assert list(txn.objects) == HierarchyTraversal.trace(graph, txn.root, 3, 0)
            assert victim not in txn.objects

    def test_generated_counter(self, db):
        gen = TransactionGenerator(db, db.config, RandomStream(7, "wl"))
        list(gen.transactions(13))
        assert gen.generated == 13

    def test_root_skew_concentrates_roots(self, db):
        config = db.config.with_changes(root_skew=1.2)
        gen = TransactionGenerator(db, config, RandomStream(8, "wl"))
        roots = [gen.next_root() for __ in range(2000)]
        low_half = sum(1 for r in roots if r < len(db) // 2)
        assert low_half / 2000 > 0.6

    def test_distinct_objects_property(self, db):
        gen = TransactionGenerator(db, db.config, RandomStream(9, "wl"))
        txn = gen.next_transaction()
        assert txn.distinct_objects == set(txn.objects)


#: Transaction mixes (PSET, PSIMPLE, PHIER, PSTOCH, PINSERT, PDELETE).
MIXES = [
    (0.25, 0.25, 0.25, 0.25, 0.0, 0.0),
    (0.2, 0.2, 0.2, 0.2, 0.1, 0.1),
    (0.0, 0.3, 0.0, 0.3, 0.2, 0.2),
]


def assert_bookkeeping(txn):
    """The lock set and write set the 2PL sweeps read match the trace:
    the lock set holds each object the trace touches once, in any
    order."""
    assert len(txn.lock_set) == len(txn.distinct_objects)
    assert set(txn.lock_set) == txn.distinct_objects
    assert isinstance(txn.write_set, frozenset)
    assert txn.write_set == {oid for oid, is_write in txn.accesses if is_write}


class TestBookkeeping:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        pwrite=st.sampled_from([0.0, 0.3]),
        mix=st.sampled_from(MIXES),
    )
    @settings(max_examples=40, deadline=None)
    def test_lock_and_write_sets_match_the_trace(self, db, seed, pwrite, mix):
        pset, psimple, phier, pstoch, pinsert, pdelete = mix
        config = db.config.with_changes(
            pset=pset,
            psimple=psimple,
            phier=phier,
            pstoch=pstoch,
            pinsert=pinsert,
            pdelete=pdelete,
            pwrite=pwrite,
            root_region=40,
        )
        gen = TransactionGenerator(db.clone(), config, RandomStream(seed, "wl"))
        kinds = set()
        for txn in gen.transactions(60):
            assert_bookkeeping(txn)
            kinds.add(txn.kind)
        if pinsert:
            assert kinds & {"insert", "delete"}
        for txn in gen.hierarchy_only(40, ref_type=0, depth=3):
            assert_bookkeeping(txn)


def reference_walk(db, root, depth, rng):
    """The stochastic walk as a plain ``randint`` per step."""
    order = [root]
    current = root
    for __ in range(depth):
        refs = db.refs(current)
        if not refs:
            break
        current = refs[rng.randint(0, len(refs) - 1)]
        order.append(current)
    return order


class TestDraws:
    @pytest.fixture(scope="class")
    def sparse(self):
        """A base whose live objects have zero, one or two references."""
        graph = build(OCBConfig(nc=6, no=300, maxnref=2), seed=4).clone()
        for oid in range(0, 300, 3):
            graph.delete_object(oid)
        counts = {
            len(graph.refs(oid)) for oid in range(300) if not graph.is_deleted(oid)
        }
        assert {0, 1} <= counts
        return graph

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_walk_and_write_flags_draw_as_randint_and_bernoulli(self, sparse, seed):
        drawn, expected = RandomStream(seed, "wl"), RandomStream(seed, "wl")
        lengths = set()
        for root in range(1, 300, 7):
            walk = StochasticTraversal.trace(sparse, root, 12, drawn)
            assert walk == reference_walk(sparse, root, 12, expected)
            lengths.add(len(walk))
            txn = _traced("stochastic", root, walk, (), 0.3, drawn)
            assert txn.accesses == tuple((oid, expected.bernoulli(0.3)) for oid in walk)
        assert len(lengths) > 1  # some walks stopped at an object without refs
        assert drawn.random() == expected.random()
