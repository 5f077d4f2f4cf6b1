"""Property-based tests for the execution engine (hypothesis)."""

from hypothesis import example, given, settings, strategies as st

from repro.engine import Database, compare_values
from repro.engine.runtime import MembershipIndex


def _make_db(values):
    database = Database()
    database.execute("CREATE TABLE t (id INT, val INT, grp TEXT)")
    if values:
        rows = ", ".join(
            f"({index}, {value}, '{'ab'[index % 2]}')" for index, value in enumerate(values)
        )
        database.execute(f"INSERT INTO t (id, val, grp) VALUES {rows}")
    return database


values_strategy = st.lists(st.integers(min_value=-100, max_value=100), min_size=0, max_size=30)


class TestFilterProperties:
    @given(values=values_strategy, threshold=st.integers(min_value=-100, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_filter_matches_python_semantics(self, values, threshold):
        database = _make_db(values)
        rows = database.query(f"SELECT val FROM t WHERE val > {threshold}")
        assert sorted(row[0] for row in rows) == sorted(v for v in values if v > threshold)

    @given(values=values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_where_true_returns_everything(self, values):
        database = _make_db(values)
        assert len(database.query("SELECT * FROM t WHERE 1 = 1")) == len(values)

    @given(values=values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_filter_result_is_subset(self, values):
        database = _make_db(values)
        filtered = database.query("SELECT val FROM t WHERE val >= 0")
        assert len(filtered) <= len(values)


class TestAggregateProperties:
    @given(values=values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_count_matches_length(self, values):
        database = _make_db(values)
        assert database.query("SELECT COUNT(*) FROM t")[0][0] == len(values)

    @given(values=st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_sum_avg_min_max_match_python(self, values):
        database = _make_db(values)
        row = database.query("SELECT SUM(val), AVG(val), MIN(val), MAX(val) FROM t")[0]
        assert row[0] == sum(values)
        assert abs(row[1] - sum(values) / len(values)) < 1e-9
        assert row[2] == min(values)
        assert row[3] == max(values)

    @given(values=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_group_by_partitions_rows(self, values):
        database = _make_db(values)
        groups = database.query("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        assert sum(count for _, count in groups) == len(values)
        assert len(groups) <= 2


class TestOrderingAndLimitProperties:
    @given(values=values_strategy, limit=st.integers(min_value=0, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_limit_bounds_result_size(self, values, limit):
        database = _make_db(values)
        rows = database.query(f"SELECT val FROM t LIMIT {limit}")
        assert len(rows) == min(limit, len(values))

    @given(values=values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_order_by_sorts(self, values):
        database = _make_db(values)
        rows = [row[0] for row in database.query("SELECT val FROM t ORDER BY val ASC")]
        assert rows == sorted(values)

    @given(values=values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_distinct_removes_duplicates(self, values):
        database = _make_db(values)
        rows = [row[0] for row in database.query("SELECT DISTINCT val FROM t")]
        assert sorted(rows) == sorted(set(values))

    @given(values=values_strategy)
    @settings(max_examples=30, deadline=None)
    def test_union_all_counts_add(self, values):
        database = _make_db(values)
        total = database.query("SELECT val FROM t UNION ALL SELECT val FROM t")
        assert len(total) == 2 * len(values)


# ---------------------------------------------------------------------------
# IN membership: the hash index against the compare_values scan
# ---------------------------------------------------------------------------

#: Mixed SQL values: ints, integral and fractional floats (with -0.0, inf and
#: NaN), numeric and non-numeric strings, bools and NULL.  Small ranges make
#: collisions such as 1 / 1.0 / '1' / '1.0' / True frequent.
membership_values = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2).map(float),
    st.sampled_from([0.5, -1.5, 2.25, -0.0, float("inf"), float("-inf"), float("nan")]),
    st.integers(min_value=-2, max_value=2).map(str),
    st.sampled_from(["1.0", "-0.0", "0.5", "nan", "inf", "True", "False", "a", ""]),
    st.booleans(),
    st.none(),
)


def _sql_in(value, negated, contains) -> object:
    """SQL ``value [NOT] IN (...)`` with the engine's NULL rules."""
    if value is None:
        return None
    contained = contains(value)
    return not contained if negated else contained


class TestMembershipIndexProperties:
    @given(
        members=st.lists(membership_values, max_size=12),
        probes=st.lists(membership_values, min_size=1, max_size=8),
    )
    # Equal numbers with different str() forms share one set slot.
    @example(members=[1, 1.0], probes=["1.0", "1"])
    @example(members=[0, -0.0], probes=["-0.0", 0.0])
    @example(members=[float("nan"), "x"], probes=[7, "nan", "x"])
    @settings(max_examples=400, deadline=None)
    def test_index_agrees_with_compare_values_scan(self, members, probes):
        index = MembershipIndex(members)

        def scan(value):
            return any(
                member is not None and compare_values(value, member) == 0
                for member in members
            )

        # Probing every member too covers the exact-hit paths.
        for value in probes + members:
            for negated in (False, True):
                assert _sql_in(value, negated, index.__contains__) == _sql_in(
                    value, negated, scan
                ), (value, members, negated)

    @given(
        members=st.lists(membership_values, min_size=1, max_size=8),
        value=membership_values,
    )
    @settings(max_examples=100, deadline=None)
    def test_literal_in_list_matches_interpreter(self, members, value):
        """Compiled literal lists (indexed at compile time) equal the
        interpreter's scan for IN and NOT IN, NaN members included."""
        database = Database()
        database.execute("CREATE TABLE one (id INT)")
        database.execute("INSERT INTO one (id) VALUES (1)")
        member_sql = ", ".join(_sql_literal(member) for member in members)
        probe_sql = _sql_literal(value)
        sql = (
            f"SELECT {probe_sql} IN ({member_sql}), {probe_sql} NOT IN ({member_sql}) "
            "FROM one"
        )
        outcomes = {}
        for mode in ("interpreted", "compiled"):
            database.executor_mode = mode
            outcomes[mode] = database.query(sql)
        assert outcomes["compiled"] == outcomes["interpreted"], sql


def _sql_literal(value) -> str:
    """SQL text evaluating to ``value`` (NaN and infinities through CAST)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return f"CAST('{value}' AS FLOAT)"
    return repr(value)
