"""End-to-end service tests: real sockets, real sessions, one engine.

Each test boots a :class:`SinewService` on an ephemeral port (hosted on
a background thread) and talks to it with the blocking client -- the
exact stack ``\\connect`` uses.
"""

from __future__ import annotations

import socket

import pytest

from repro.core import SinewDB
from repro.service import (
    PROTOCOL_VERSION,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SinewService,
)
from repro.service.protocol import decode_message, encode_message


@pytest.fixture
def sdb():
    instance = SinewDB("server-test")
    yield instance
    instance.close()


@pytest.fixture
def service(sdb):
    with SinewService(sdb, ServiceConfig(port=0, max_sessions=8)) as running:
        yield running


def connect(service) -> ServiceClient:
    return ServiceClient("127.0.0.1", service.port)


class TestBasicProtocol:
    def test_greeting_and_ping(self, service):
        with connect(service) as client:
            assert client.greeting["version"] == PROTOCOL_VERSION
            assert client.session_id >= 1
            assert client.ping()

    def test_load_query_round_trip(self, service):
        with connect(service) as client:
            report = client.load(
                "docs", [{"user": {"id": 1}, "score": 2.5}, {"user": {"id": 2}}]
            )
            assert report["loaded"] == 2
            result = client.query('SELECT "user.id", score FROM docs ORDER BY "user.id"')
            assert result.rows == [(1, 2.5), (2, None)]
            assert result.types == ["integer", "real"]
            assert result.exec_stats  # instrumentation travels the wire

    def test_prepared_statement_flow(self, service):
        with connect(service) as client:
            client.load("docs", [{"a": 1}])
            assert client.prepare("c", "SELECT COUNT(*) FROM docs") == "c"
            assert client.execute_prepared("c").scalar() == 1
            assert client.deallocate("c") is True
            with pytest.raises(ServiceError, match="no prepared statement"):
                client.execute_prepared("c")

    def test_explain_sql_plans_the_sinew_prepare(self, service, sdb):
        with connect(service) as client:
            client.load("docs", [{"a": i, "b": f"x{i}"} for i in range(20)])
            select = "SELECT b FROM docs WHERE a > 3"
            result = client.query(f"EXPLAIN {select}")
            assert result.plan_text == sdb.explain(select)
            assert "extract_key_text(docs.data, 'b')" in result.plan_text

    def test_request_ids_echo(self, service):
        with connect(service) as client:
            response = client.request({"op": "ping", "id": 42})
            assert response["id"] == 42

    def test_status_merges_service_and_engine(self, service):
        with connect(service) as client:
            status = client.status()
            assert status["service"]["sessions"] == 1
            assert status["service"]["max_sessions"] == 8
            assert "collections" in status["engine"]
            assert "latch" in status["engine"]

    def test_session_settings(self, service):
        with connect(service) as client:
            settings = client.set_option("explain_analyze", True)
            assert settings["explain_analyze"] is True
            with pytest.raises(ServiceError) as info:
                client.set_option("bogus", 1)
            assert info.value.code == "database"


class TestErrorMapping:
    def test_syntax_error(self, service):
        with connect(service) as client:
            with pytest.raises(ServiceError) as info:
                client.query("SELEC 1")
            assert info.value.code == "syntax"
            # the connection survives the error
            assert client.ping()

    def test_semantic_error(self, service):
        with connect(service) as client:
            client.load("docs", [{"a": 1}])
            with pytest.raises(ServiceError) as info:
                client.query("SELECT a, COUNT(*) FROM docs")
            assert info.value.code == "semantic"
            assert "SNW107" in info.value.message

    def test_unknown_key_is_null_with_warning(self, service):
        # multi-structured contract: a never-seen key is NULL, not an
        # error -- and the analyzer's warning travels the wire
        with connect(service) as client:
            client.load("docs", [{"a": 1}])
            result = client.query("SELECT definitely_not_a_key FROM docs")
            assert result.rows == [(None,)]
            assert any("SNW201" in d for d in result.diagnostics)

    def test_catalog_error(self, service):
        with connect(service) as client:
            with pytest.raises(ServiceError) as info:
                client.query("SELECT a FROM no_such_table")
            assert info.value.code in ("catalog", "semantic", "planning")

    def test_malformed_frame_keeps_connection_alive(self, service):
        with connect(service) as client:
            client._writer.sendall(b"this is not json\n")
            response = decode_message(client._reader.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "protocol"
            assert client.ping()

    def test_unknown_op(self, service):
        with connect(service) as client:
            with pytest.raises(ServiceError) as info:
                client.request({"op": "teleport"})
            assert info.value.code == "protocol"


class TestAdmissionControl:
    def test_session_limit_rejects_with_busy(self, sdb):
        with SinewService(sdb, ServiceConfig(port=0, max_sessions=2)) as service:
            first, second = connect(service), connect(service)
            try:
                with pytest.raises(ServiceError) as info:
                    connect(service)
                assert info.value.code == "busy"
                assert info.value.retryable
            finally:
                first.close()
                second.close()
            # a freed slot admits again (closes need a moment to unregister)
            import time

            for _ in range(100):
                try:
                    third = connect(service)
                    break
                except ServiceError:
                    time.sleep(0.02)
            else:
                pytest.fail("slot never freed after client close")
            third.close()

    def test_query_timeout_returns_structured_error(self, sdb):
        from repro.testing.faults import FaultInjector

        injector = FaultInjector()
        sdb.attach_faults(injector)
        config = ServiceConfig(port=0, query_timeout=0.15)
        with SinewService(sdb, config) as service:
            with connect(service) as client:
                client.load("docs", [{"a": 1}])
                # stall the engine-side write long past the query budget
                injector.plan("storage.write_row", "delay", delay=1.0, count=None)
                with pytest.raises(ServiceError) as info:
                    client.load("docs", [{"a": 2}])
                assert info.value.code == "timeout"
                # the timed-out load keeps running on its worker thread
                # and its rows may land: retrying would double-apply, so
                # write timeouts must not advertise retryable
                assert not info.value.retryable
                assert "may apply" in info.value.payload["message"]
                injector.reset()
                # the session (and server) remain usable afterwards
                assert client.query("SELECT COUNT(*) FROM docs").scalar() >= 1
        sdb.attach_faults(None)

    def test_timeout_retryable_classification(self, sdb):
        # without a rid, only reads are idempotent under a timeout (the
        # engine has no cancellation points, so a timed-out statement's
        # effects may still apply); a rid-stamped write is journaled, so
        # retrying it dedups server-side and is therefore safe
        from repro.rdbms.errors import SqlSyntaxError
        from repro.rdbms.sql.parser import parse
        from repro.service.session import Session

        service = SinewService(sdb, ServiceConfig(port=0))
        try:
            session = Session(1, sdb, service.write_lock)
            sdb.create_collection("docs")

            def retryable(request) -> bool:
                # the statement _dispatch hands over: the query's one
                # parse, or the one made at prepare (None when neither)
                statement = None
                if request["op"] == "query":
                    try:
                        statement = parse(request["sql"])
                    except SqlSyntaxError:
                        pass
                elif request["op"] == "execute":
                    prepared = session.prepared.get(request["name"])
                    statement = prepared.statement if prepared else None
                return service._timeout_retryable(request, statement)

            assert retryable({"op": "query", "sql": "SELECT a FROM docs"})
            assert not retryable(
                {"op": "query", "sql": "INSERT INTO docs (a) VALUES (1)"}
            )
            assert not retryable({"op": "query", "sql": "COMMIT"})
            assert not retryable({"op": "query", "sql": "not even sql"})
            assert not retryable({"op": "load", "table": "docs", "documents": []})
            session.prepare("r", "SELECT a FROM docs")
            session.prepare("w", "DELETE FROM docs WHERE a = 1")
            assert retryable({"op": "execute", "name": "r"})
            assert not retryable({"op": "execute", "name": "w"})
            assert not retryable({"op": "execute", "name": "missing"})
            # rid-stamped writes flip to retryable (journal dedups them)
            assert retryable(
                {"op": "query", "sql": "INSERT INTO docs (a) VALUES (1)", "rid": 1}
            )
            assert retryable({"op": "query", "sql": "COMMIT", "rid": 2})
            assert retryable({"op": "execute", "name": "w", "rid": 3})
            assert retryable(
                {"op": "load", "table": "docs", "documents": [], "rid": 4}
            )
            # but a rid can't make the unparseable or the unknown safe
            assert not retryable({"op": "query", "sql": "not even sql", "rid": 5})
            assert not retryable({"op": "execute", "name": "missing", "rid": 6})
        finally:
            service._executor.shutdown(wait=False)

    def test_disconnect_mid_transaction_rolls_back(self, service, sdb):
        client = connect(service)
        client.load("docs", [{"a": 1}])
        client.begin()
        client.query("UPDATE docs SET a = 99 WHERE a = 1")
        # vanish without COMMIT or a polite close; the makefile() handle
        # shares the fd, so close both or no FIN ever reaches the server
        client._reader.close()
        client._writer.close()
        import time

        for _ in range(100):
            if not sdb.db.txn_manager.active:
                break
            time.sleep(0.02)
        assert not sdb.db.txn_manager.active
        with connect(service) as control:
            assert control.query("SELECT a FROM docs").rows == [(1,)]

    def test_eof_mid_frame_is_tolerated(self, service):
        raw = socket.create_connection(("127.0.0.1", service.port))
        raw.recv(4096)  # greeting
        raw.sendall(b'{"op": "pi')  # half a frame, then gone
        raw.close()
        # server still serves
        with connect(service) as client:
            assert client.ping()


class TestTwoClients:
    def test_transactions_do_not_interleave(self, service):
        with connect(service) as one, connect(service) as two:
            one.load("docs", [{"a": 1}])
            one.begin()
            one.query("UPDATE docs SET a = 50 WHERE a = 1")
            # two's autocommit read: must not observe one's open txn view
            # through shared mutable session state, and two's write must
            # not be absorbed into one's transaction
            two.load("docs", [{"a": 2}])
            one.rollback()
            rows = sorted(two.query("SELECT a FROM docs").rows)
            assert rows == [(1,), (2,)]

    def test_prepared_namespaces_are_disjoint(self, service):
        with connect(service) as one, connect(service) as two:
            one.load("docs", [{"a": 1}])
            one.prepare("mine", "SELECT COUNT(*) FROM docs")
            with pytest.raises(ServiceError):
                two.execute_prepared("mine")
            assert one.execute_prepared("mine").scalar() == 1

    def test_shared_plan_cache_counts_cross_session_hits(self, service):
        with connect(service) as one, connect(service) as two:
            one.load("docs", [{"a": 1}])
            sql = "SELECT a FROM docs"
            one.query(sql)
            before = two.status()["engine"]["plan_cache"]["hits"]
            two.query(sql)  # same normalized key, different session
            after = two.status()["engine"]["plan_cache"]["hits"]
            assert after == before + 1


class TestParseOnce:
    def test_each_statement_is_parsed_once(self, service, sdb, monkeypatch):
        from repro.rdbms.sql import parser

        calls = []
        parse_statement = parser._Parser.parse_statement

        def counting(self):
            calls.append(1)
            return parse_statement(self)

        monkeypatch.setattr(parser._Parser, "parse_statement", counting)

        def parses(fn) -> int:
            before = len(calls)
            fn()
            return len(calls) - before

        with connect(service) as client:
            client.load("docs", [{"a": 1}])

            def query(sql, rid=None):
                request = {"op": "query", "sql": sql}
                if rid is not None:
                    request["rid"] = rid
                return lambda: client.request(request)

            assert parses(query("SELECT a FROM docs")) == 1
            assert parses(query("UPDATE docs SET a = 2 WHERE a = 1")) == 1
            assert parses(query("UPDATE docs SET a = 3 WHERE a = 2", rid=1)) == 1
            assert parses(query("BEGIN", rid=2)) == 1
            assert parses(query("COMMIT", rid=3)) == 1
            client.prepare("r", "SELECT a FROM docs")
            client.prepare("w", "UPDATE docs SET a = 4 WHERE a = 3")
            assert parses(lambda: client.execute_prepared("r")) == 0
            assert parses(lambda: client.execute_prepared("w")) == 0
            with pytest.raises(ServiceError) as info:
                query("UPDATE docs SET", rid=4)()
            assert info.value.code == "syntax"
            assert client.query("SELECT a FROM docs").rows == [(4,)]
        assert parses(lambda: sdb.query("UPDATE docs SET a = 5 WHERE a = 4")) == 1


def test_shell_connect_round_trip(sdb):
    """The ``\\connect`` path: a shell driving a remote server."""
    import io

    from repro.shell import SinewShell

    with SinewService(sdb, ServiceConfig(port=0)) as service:
        out = io.StringIO()
        shell = SinewShell(out=out)
        shell.run_line(f"\\connect 127.0.0.1:{service.port}")
        shell.run_line("\\c remote_docs")
        shell.run_line("\\d")
        shell.run_line("\\daemon")  # refused remotely
        shell.run_line("\\disconnect")
        text = out.getvalue()
        assert "connected to" in text
        assert "remote_docs" in text
        assert "local meta-command" in text
        assert "disconnected" in text
        assert shell.remote is None
        shell.sdb.close()


def test_shell_service_status_renders_remote_health(sdb):
    """``\\service status`` over the wire renders the ``health`` dict."""
    import io

    from repro.shell import SinewShell

    with SinewService(sdb, ServiceConfig(port=0)) as service:
        out = io.StringIO()
        shell = SinewShell(out=out)
        shell.run_line(f"\\connect 127.0.0.1:{service.port}")
        shell.run_line("\\service status")
        shell.run_line("\\disconnect")
        text = out.getvalue()
        assert "service: ok  sessions: 1  inflight: 0" in text
        assert "  daemon: idle" in text
        # the service always supervises the engine's workers
        assert "  supervisor[materializer]: restarts=0" in text
        shell.sdb.close()


def test_frame_compactness():
    """Responses are single lines (the framing invariant)."""
    frame = encode_message({"rows": [[1, "two\nlines"]]})
    assert frame.count(b"\n") == 1
