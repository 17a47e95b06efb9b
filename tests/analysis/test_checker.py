"""Tests for the CHECK-style catalog/storage integrity pass."""

import struct

import pytest

from repro.analysis.checker import validate_document
from repro.core import SinewDB
from repro.core import serializer
from repro.rdbms.types import SqlType


@pytest.fixture()
def sdb():
    instance = SinewDB("chk")
    instance.create_collection("t")
    instance.load(
        "t",
        [{"url": f"u{i}.com", "hits": i, "name": f"n{i}"} for i in range(20)],
    )
    return instance


def table_and_positions(sdb):
    table = sdb.db.table("t")
    return table, table.schema.position_of("data")


def findings_with_code(reports, code):
    return [f for report in reports for f in report.findings if f.code == code]


class TestCleanDatabase:
    def test_clean_table_has_no_findings(self, sdb):
        (report,) = sdb.check("t")
        assert report.ok
        assert report.rows_scanned == 20

    def test_settled_table_still_clean(self, sdb):
        sdb.settle("t")
        (report,) = sdb.check("t")
        assert report.ok, [str(f) for f in report.findings]

    def test_check_all_collections(self, sdb):
        sdb.create_collection("u")
        reports = sdb.check()
        assert [r.table_name for r in reports] == ["t", "u"]
        assert all(r.ok for r in reports)


class TestSeededCorruption:
    def test_malformed_header_snw303(self, sdb):
        table, data_position = table_and_positions(sdb)
        rid, row = next(table.scan())
        bad = list(row)
        # header claims 5 attributes but the bytes end after the count word
        bad[data_position] = struct.pack("<I", 5)
        table.update(rid, tuple(bad))

        (report,) = sdb.check("t")
        bad_findings = [f for f in report.findings if f.code == "SNW303"]
        assert len(bad_findings) == 1
        assert bad_findings[0].is_error
        assert "claims 5 attribute" in bad_findings[0].message

    def test_unsorted_attribute_ids_snw303(self, sdb):
        table, data_position = table_and_positions(sdb)
        rid, row = next(table.scan())
        data = bytearray(row[data_position])
        # swap the first two attribute ids in the header: ids must be
        # strictly ascending for binary search to work
        (first,) = struct.unpack_from("<I", data, 4)
        (second,) = struct.unpack_from("<I", data, 8)
        struct.pack_into("<I", data, 4, second)
        struct.pack_into("<I", data, 8, first)
        bad = list(row)
        bad[data_position] = bytes(data)
        table.update(rid, tuple(bad))

        (report,) = sdb.check("t")
        assert any(
            f.code == "SNW303" and "ascending" in f.message
            for f in report.findings
        )

    def test_unknown_attribute_id_snw304(self, sdb):
        table, data_position = table_and_positions(sdb)
        rid, row = next(table.scan())
        bad = list(row)
        bad[data_position] = serializer.serialize(
            [(99999, SqlType.INTEGER, 7)]
        )
        table.update(rid, tuple(bad))

        (report,) = sdb.check("t")
        assert any(
            f.code == "SNW304" and "99999" in f.message and f.is_error
            for f in report.findings
        )

    def test_count_undercount_snw301(self, sdb):
        # a catalog count lower than stored occurrences is impossible
        # under correct maintenance -> hard error
        (attribute,) = sdb.catalog.attributes_named("hits")
        state = sdb.catalog.table("t").columns[attribute.attr_id]
        state.count -= 3

        (report,) = sdb.check("t")
        mismatches = [f for f in report.findings if f.code == "SNW301"]
        assert len(mismatches) == 1
        assert mismatches[0].is_error

    def test_count_stale_high_is_warning(self, sdb):
        (attribute,) = sdb.catalog.attributes_named("hits")
        sdb.catalog.table("t").columns[attribute.attr_id].count += 2

        (report,) = sdb.check("t")
        mismatches = [f for f in report.findings if f.code == "SNW301"]
        assert len(mismatches) == 1
        assert not mismatches[0].is_error

    def test_reservoir_residue_snw302(self, sdb):
        sdb.materialize("t", "url", SqlType.TEXT)
        sdb.run_materializer("t")
        (report,) = sdb.check("t")
        assert report.ok  # mover finished: no residue

        # sneak the materialized attribute back into one reservoir doc
        (attribute,) = sdb.catalog.attributes_named("url")
        table, data_position = table_and_positions(sdb)
        rid, row = next(table.scan())
        data = serializer.add_attribute(
            row[data_position],
            attribute.attr_id,
            SqlType.TEXT,
            "sneaky",
        )
        bad = list(row)
        bad[data_position] = data
        table.update(rid, tuple(bad))
        # keep the count consistent so only the residue fires
        sdb.catalog.table("t").columns[attribute.attr_id].count += 1

        (report,) = sdb.check("t")
        residue = [f for f in report.findings if f.code == "SNW302"]
        assert len(residue) == 1
        assert residue[0].is_error

    def test_missing_physical_column_snw306(self, sdb):
        (attribute,) = sdb.catalog.attributes_named("name")
        state = sdb.catalog.table("t").columns[attribute.attr_id]
        state.materialized = True
        state.physical_name = "name_gone"

        (report,) = sdb.check("t")
        assert any(f.code == "SNW306" and f.is_error for f in report.findings)

    def test_rowcount_mismatch_snw305(self, sdb):
        sdb.catalog.table("t").n_documents -= 5

        (report,) = sdb.check("t")
        assert any(f.code == "SNW305" and f.is_error for f in report.findings)

    def test_example_cap_summarizes(self, sdb):
        table, data_position = table_and_positions(sdb)
        for rid, row in list(table.scan())[:10]:
            bad = list(row)
            bad[data_position] = b"\x01"  # shorter than the count word
            table.update(rid, tuple(bad))

        (report,) = sdb.check("t")
        detailed = [
            f
            for f in report.findings
            if f.code == "SNW303" and "suppressed" not in f.message
        ]
        summaries = [
            f
            for f in report.findings
            if f.code == "SNW303" and "suppressed" in f.message
        ]
        assert len(detailed) == 5
        assert len(summaries) == 1


class TestValidateDocument:
    def test_round_trip_is_valid(self):
        data = serializer.serialize(
            [(1, SqlType.INTEGER, 5), (2, SqlType.TEXT, "x")]
        )
        assert validate_document(data) is None

    def test_empty_document_is_valid(self):
        assert validate_document(serializer.serialize([])) is None

    def test_non_bytes_rejected(self):
        assert "not bytes" in validate_document("a string")

    def test_truncated_rejected(self):
        assert "truncated" in validate_document(b"\x01")

    def test_body_length_mismatch(self):
        data = serializer.serialize([(1, SqlType.INTEGER, 5)])
        assert "mismatch" in validate_document(data + b"extra")


class TestSinewCheckUdf:
    def test_per_row_udf_reports_ok(self, sdb):
        result = sdb.query("SELECT _id, sinew_check(data) FROM t")
        assert len(result.rows) == 20
        assert all(row[1] == "ok" for row in result.rows)

    def test_per_row_udf_reports_problem(self, sdb):
        table, data_position = table_and_positions(sdb)
        rid, row = next(table.scan())
        bad = list(row)
        bad[data_position] = struct.pack("<I", 9)
        table.update(rid, tuple(bad))
        result = sdb.query("SELECT sinew_check(data) FROM t")
        problems = [row[0] for row in result.rows if row[0] != "ok"]
        assert len(problems) == 1
        assert "claims 9 attribute" in problems[0]
