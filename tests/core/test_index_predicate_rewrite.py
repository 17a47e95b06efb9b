"""Equality on a virtual key stays exact beside the text index (section
4.3): the index folds case when it tokenizes, so two values can share a
token, and only matches() may treat them alike."""

from repro.core import SinewDB


class TestPrefilterResults:
    def test_recheck_filters_token_collisions(self):
        # two values sharing a token must not cross-match under equality
        sdb = SinewDB("collide")
        sdb.create_collection("t")
        documents = [{"other": f"word{n}", "n": n} for n in range(3, 400)]
        sdb.load("t", [{"k": "alpha", "n": 1}, {"k": "ALPHA", "n": 2}] + documents)
        # the search is selective enough to read the index, which finds both
        search = "SELECT n FROM t WHERE matches('k', 'alpha')"
        assert "Index Scan on t using text(data)" in sdb.explain(search)
        assert sorted(sdb.query(search).column(0)) == [1, 2]
        # with the index built, equality still enforces exact text
        assert sdb.query("SELECT n FROM t WHERE k = 'alpha'").column(0) == [1]
        assert sdb.query("SELECT n FROM t WHERE k = 'ALPHA'").column(0) == [2]
