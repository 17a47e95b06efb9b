"""Tests for the interactive shell (driven programmatically)."""

import io
import json

import pytest

from repro.shell import SinewShell


@pytest.fixture()
def shell(tmp_path):
    out = io.StringIO()
    instance = SinewShell(out=out)
    return instance, out, tmp_path


def output_of(out: io.StringIO) -> str:
    return out.getvalue()


class TestMetaCommands:
    def test_create_and_list_collections(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c posts", "\\d"])
        assert "created collection 'posts'" in output_of(out)
        assert "collections: posts" in output_of(out)

    def test_load_json_lines(self, shell):
        sh, out, tmp = shell
        path = tmp / "docs.jsonl"
        path.write_text(
            "\n".join(json.dumps({"k": i, "v": f"x{i}"}) for i in range(5))
        )
        sh.run([f"\\load posts {path}"])
        assert "loaded 5 documents" in output_of(out)
        sh.run_line("SELECT count(*) FROM posts")
        assert "(1 rows)" in output_of(out)

    def test_describe_schema(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c t"])
        sh.sdb.load("t", [{"a": 1, "b": "x"}])
        sh.run_line("\\d t")
        text = output_of(out)
        assert "a" in text and "integer" in text and "virtual" in text

    def test_explain(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c t"])
        sh.sdb.load("t", [{"a": 1}])
        sh.run_line("\\explain SELECT a FROM t WHERE a > 0")
        assert "Seq Scan on t" in output_of(out)

    def test_settle(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c t"])
        sh.sdb.load("t", [{"k": f"v{i}"} for i in range(300)])
        sh.run_line("\\settle t")
        assert "values moved" in output_of(out)

    def test_catalog_dump(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c t"])
        sh.sdb.load("t", [{"some_key": 1}])
        sh.run_line("\\catalog")
        assert "some_key" in output_of(out)

    def test_quit(self, shell):
        sh, _out, _tmp = shell
        sh.run(["\\q", "\\c never_reached"])
        assert sh.running is False
        assert "never_reached" not in sh.sdb.collections()

    def test_unknown_meta(self, shell):
        sh, out, _tmp = shell
        sh.run_line("\\frobnicate")
        assert "unknown meta-command" in output_of(out)

    def test_service_status_embedded(self, shell):
        sh, out, _tmp = shell
        sh.run_line("\\service")
        text = output_of(out)
        assert "engine: ok" in text
        assert "  daemon: idle" in text
        assert "  supervisor: (off)" in text
        sh.sdb.supervise()
        sh.run_line("\\service status")
        assert (
            "  supervisor[materializer]: restarts=0 failures=0 tripped=False"
            in output_of(out)
        )

    def test_daemon_status_default(self, shell):
        sh, out, _tmp = shell
        sh.run_line("\\daemon")
        text = output_of(out)
        assert "state:        idle" in text
        assert "backlog:      (empty)" in text
        assert "last error:   (none)" in text

    def test_daemon_start_stop_settles_backlog(self, shell):
        from repro.rdbms.types import SqlType

        sh, out, _tmp = shell
        sh.run(["\\c t"])
        sh.sdb.load("t", [{"a": i} for i in range(20)])
        sh.sdb.materialize("t", "a", SqlType.INTEGER)
        sh.run_line("\\daemon start")
        assert "daemon started" in output_of(out)
        assert sh.sdb.daemon.wait_until_idle(10.0)
        sh.run_line("\\daemon stop")
        sh.run_line("\\daemon status")
        text = output_of(out)
        assert "daemon stopped" in text
        assert "state:        stopped" in text
        assert "rows moved:   20" in text

    def test_daemon_usage_hint(self, shell):
        sh, out, _tmp = shell
        sh.run_line("\\daemon frob")
        assert "usage: \\daemon" in output_of(out)


class TestSqlAndErrors:
    def test_select_renders_table(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c t"])
        sh.sdb.load("t", [{"a": 1}, {"a": 2}])
        sh.run_line("SELECT a FROM t ORDER BY a")
        text = output_of(out)
        assert "| a" in text
        assert "(2 rows)" in text

    def test_update_reports_rowcount(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c t"])
        sh.sdb.load("t", [{"a": 1}, {"a": 2}])
        sh.run_line("UPDATE t SET b = 'x' WHERE a = 1")
        assert "OK (1 rows affected)" in output_of(out)

    def test_sql_error_is_caught(self, shell):
        sh, out, _tmp = shell
        sh.run_line("SELECT FROM nothing")
        assert "ERROR:" in output_of(out)
        assert sh.running  # the shell survives

    def test_missing_file_error(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c t", "\\load t /nonexistent/file.jsonl"])
        assert "ERROR:" in output_of(out)

    def test_blank_and_comment_lines_ignored(self, shell):
        sh, out, _tmp = shell
        sh.run(["", "   ", "-- a comment"])
        assert output_of(out) == ""

    def test_row_truncation_note(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c t"])
        sh.sdb.load("t", [{"a": i} for i in range(150)])
        sh.run_line("SELECT a FROM t")
        assert "first 100 shown" in output_of(out)


class TestAnalysisCommands:
    def test_lint_reports_diagnostics(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c t"])
        sh.sdb.load("t", [{"a": 1}])
        sh.run_line("\\lint SELECT missing_key FROM t")
        text = output_of(out)
        assert "SNW201" in text
        assert "^" in text  # caret underline

    def test_lint_clean_query(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c t"])
        sh.sdb.load("t", [{"a": 1}])
        sh.run_line("\\lint SELECT a FROM t")
        assert "no diagnostics" in output_of(out)

    def test_lint_engine_runs_protocol_pass(self, shell):
        sh, out, _tmp = shell
        sh.run_line("\\lint engine")
        assert "engine protocol: clean" in output_of(out)

    def test_semantic_error_renders_with_caret(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c t"])
        sh.sdb.load("t", [{"a": 1}])
        sh.run_line("SELECT frobnicate(a) FROM t")
        text = output_of(out)
        assert "SNW104" in text
        assert "^" in text

    def test_warning_printed_after_rows(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c t"])
        sh.sdb.load("t", [{"a": 1}])
        sh.run_line("SELECT missing_key FROM t")
        text = output_of(out)
        assert "(1 rows)" in text
        assert "SNW201" in text

    def test_check_clean_table(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c t"])
        sh.sdb.load("t", [{"a": 1}])
        sh.run_line("\\check")
        assert "check 't': 1 row(s) scanned, ok" in output_of(out)

    def test_check_reports_seeded_corruption(self, shell):
        sh, out, _tmp = shell
        sh.run(["\\c t"])
        sh.sdb.load("t", [{"a": 1}, {"a": 2}])
        sh.sdb.catalog.table("t").n_documents += 3
        sh.run_line("\\check t")
        text = output_of(out)
        assert "SNW305" in text

    def test_check_without_collections(self, shell):
        sh, out, _tmp = shell
        sh.run_line("\\check")
        assert "no collections to check" in output_of(out)
