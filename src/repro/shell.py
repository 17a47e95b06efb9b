"""An interactive SQL shell for Sinew (``python -m repro.shell``).

A small psql-flavoured REPL over a :class:`~repro.core.SinewDB` instance:
plain SQL runs against the logical universal relation, and meta-commands
manage collections and inspect the hybrid schema.

Meta-commands
-------------
==================  ====================================================
``\\c NAME``         create a collection
``\\load NAME FILE`` bulk-load a JSON-lines file into a collection
``\\d [NAME]``       list collections, or show one logical schema
``\\explain SQL``    show the rewritten physical plan
``\\analyze SQL``    execute with EXPLAIN ANALYZE instrumentation: per-node
                    actual rows and wall time plus extraction counters
``\\lint SQL``       semantic analysis only: diagnostics, no execution
``\\lint engine``    run the engine-protocol analyzer (SNW4xx findings)
                    over the installed ``repro`` package source
``\\check [NAME]``   catalog/storage integrity audit (SNW3xx findings)
``\\settle NAME``    run the schema analyzer + column materializer
``\\daemon [CMD]``   background materializer: status (default), start,
                    stop, pause, resume
``\\wal [CMD]``      durability status (default) or ``checkpoint`` to
                    force a checkpoint + WAL truncation
``\\catalog``        reflect + dump the attribute dictionary
``\\connect H:P``    switch to remote mode against a running
                    ``python -m repro.service`` server; SQL, ``\\c`` and
                    ``\\load`` then run over the wire in this session,
                    with automatic retries (exactly-once writes via the
                    service's request-id journal)
``\\disconnect``     leave remote mode (back to the embedded instance)
``\\service [CMD]``  fault-tolerance operations: status (default) shows
                    health/degraded/supervisor state; ``recover`` brings
                    a degraded engine back and resets tripped workers
``\\q``              quit
==================  ====================================================

Semantic errors print with a caret underline pointing into the query;
binder warnings (unknown keys, provably-NULL predicates, multi-typed
downcasts) print after the result rows.
"""

from __future__ import annotations

import json
import sys
from typing import Iterable, TextIO

from .analysis.diagnostics import render_report
from .core import SinewDB
from .harness.tables import format_table
from .rdbms.errors import DatabaseError, SemanticError
from .service.client import ServiceClient, ServiceError
from .service.retry import RetryPolicy


class SinewShell:
    """Line-oriented command processor over one SinewDB instance."""

    def __init__(self, sdb: SinewDB | None = None, out: TextIO | None = None):
        self.sdb = sdb or SinewDB("shell")
        self.out = out or sys.stdout
        self.running = True
        #: remote mode: a live ServiceClient, or None for embedded mode
        self.remote: ServiceClient | None = None

    # ------------------------------------------------------------------

    def run_line(self, line: str) -> None:
        """Execute one input line (SQL or a meta-command)."""
        line = line.strip()
        if not line or line.startswith("--"):
            return
        try:
            if line.startswith("\\"):
                self._meta(line)
            else:
                self._sql(line)
        except DatabaseError as error:
            self._print(f"ERROR: {error}")
        except ServiceError as error:
            self._print(f"ERROR: {error}")
        except FileNotFoundError as error:
            self._print(f"ERROR: {error}")
        except (ConnectionError, OSError) as error:
            if self.remote is not None:
                self._print(f"ERROR: lost connection to server ({error})")
                self._disconnect(silent=True)
            else:
                self._print(f"ERROR: {error}")

    def run(self, lines: Iterable[str]) -> None:
        for line in lines:
            if not self.running:
                break
            self.run_line(line)

    # ------------------------------------------------------------------

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    def _sql(self, sql: str) -> None:
        if self.remote is not None:
            result = self.remote.query(sql)
        else:
            try:
                result = self.sdb.query(sql)
            except SemanticError as error:
                self._print(render_report(error.diagnostics, sql))
                return
        if result.columns:
            rows = [list(row) for row in result.rows[:100]]
            self._print(format_table(result.columns, rows))
            suffix = "" if len(result.rows) <= 100 else " (first 100 shown)"
            self._print(f"({len(result.rows)} rows){suffix}")
        else:
            self._print(f"OK ({result.rowcount} rows affected)")
        for diagnostic in result.diagnostics:
            self._print(str(diagnostic))

    def _meta(self, line: str) -> None:
        parts = line.split()
        command, arguments = parts[0], parts[1:]
        if command == "\\q":
            self.running = False
            return
        if command == "\\connect":
            self._require(arguments, 1, "\\connect HOST:PORT")
            self._connect(arguments[0])
            return
        if command == "\\disconnect":
            self._disconnect()
            return
        if command == "\\c":
            self._require(arguments, 1, "\\c NAME")
            if self.remote is not None:
                self.remote.create_collection(arguments[0])
            else:
                self.sdb.create_collection(arguments[0])
            self._print(f"created collection {arguments[0]!r}")
            return
        if command == "\\load":
            self._require(arguments, 2, "\\load NAME FILE")
            self._load(arguments[0], arguments[1])
            return
        if command == "\\service":
            self._service(arguments)
            return
        if self.remote is not None and command not in ("\\d",):
            self._print(
                f"{command} is a local meta-command; \\disconnect first "
                "(remote mode supports SQL, \\c, \\load, \\d)"
            )
            return
        if command == "\\d":
            if self.remote is not None:
                engine = self.remote.status().get("engine", {})
                names = sorted(engine.get("collections", {}))
                self._print("collections: " + (", ".join(names) or "(none)"))
            elif arguments:
                self._describe(arguments[0])
            else:
                names = self.sdb.collections()
                self._print("collections: " + (", ".join(names) or "(none)"))
            return
        if command == "\\explain":
            sql = line[len("\\explain") :].strip()
            if not sql:
                self._print("usage: \\explain SELECT ...")
                return
            self._print(self.sdb.explain(sql))
            return
        if command == "\\analyze":
            sql = line[len("\\analyze") :].strip()
            if not sql:
                self._print("usage: \\analyze SELECT ...")
                return
            try:
                result = self.sdb.query(sql, explain_analyze=True)
            except SemanticError as error:
                self._print(render_report(error.diagnostics, sql))
                return
            self._print(result.plan_text or "")
            return
        if command == "\\lint":
            sql = line[len("\\lint") :].strip()
            if not sql:
                self._print("usage: \\lint SELECT ... | \\lint engine")
                return
            if sql == "engine":
                self._lint_engine()
                return
            analysis = self.sdb.lint(sql)
            if analysis.diagnostics:
                self._print(render_report(analysis.diagnostics, sql))
            else:
                self._print("no diagnostics")
            return
        if command == "\\check":
            reports = self.sdb.check(arguments[0] if arguments else None)
            for report in reports:
                self._print(str(report))
                for finding in report.findings:
                    self._print("  " + str(finding))
            if not reports:
                self._print("no collections to check")
            return
        if command == "\\settle":
            self._require(arguments, 1, "\\settle NAME")
            report = self.sdb.analyze_schema(arguments[0])
            moved = self.sdb.run_materializer(arguments[0])
            self._print(
                f"materialized: {report.materialized_keys() or '(nothing)'} / "
                f"dematerialized: {report.dematerialized_keys() or '(nothing)'} / "
                f"{moved.rows_moved} values moved"
            )
            return
        if command == "\\daemon":
            self._daemon(arguments)
            return
        if command == "\\wal":
            self._wal(arguments)
            return
        if command == "\\catalog":
            self.sdb.sync_catalog()
            result = self.sdb.db.execute(
                "SELECT _id, key_name, key_type FROM _sinew_attributes "
                "ORDER BY _id LIMIT 100"
            )
            self._print(format_table(["id", "key", "type"], [list(r) for r in result]))
            return
        self._print(
            f"unknown meta-command {command!r}; "
            "try \\d, \\c, \\load, \\lint, \\analyze, \\check, \\daemon, \\wal, "
            "\\service, \\connect, \\q"
        )

    def _lint_engine(self) -> None:
        """``\\lint engine`` -- the SNW4xx protocol pass over this install."""
        from pathlib import Path

        import repro

        from .analysis.protocol import analyze_paths, format_finding

        findings = analyze_paths([Path(repro.__file__).resolve().parent])
        for finding in findings:
            self._print(format_finding(finding))
        if findings:
            plural = "" if len(findings) == 1 else "s"
            self._print(f"engine protocol: {len(findings)} finding{plural}")
        else:
            self._print("engine protocol: clean")

    def _daemon(self, arguments: list[str]) -> None:
        """``\\daemon [start|stop|pause|resume|status]`` -- default status."""
        daemon = self.sdb.daemon
        action = arguments[0] if arguments else "status"
        if action == "start":
            daemon.start()
            self._print("daemon started")
            return
        if action == "stop":
            daemon.stop()
            self._print("daemon stopped")
            return
        if action == "pause":
            daemon.pause()
            self._print("daemon paused")
            return
        if action == "resume":
            daemon.resume()
            self._print("daemon resumed")
            return
        if action != "status":
            self._print("usage: \\daemon [start|stop|pause|resume|status]")
            return
        for line in daemon.status().lines():
            self._print(line)

    def _service(self, arguments: list[str]) -> None:
        """``\\service [status|recover]`` -- fault-tolerance operations."""
        action = arguments[0] if arguments else "status"
        if action == "recover":
            if self.remote is not None:
                report = self.remote.recover()
            else:
                report = self.sdb.recover_service()
            self._print(
                f"recovered: {report.get('recovered')}  "
                f"degraded: {report.get('degraded')}"
            )
            if report.get("last_io_error"):
                self._print(f"  last_io_error: {report['last_io_error']}")
            return
        if action != "status":
            self._print("usage: \\service [status|recover]")
            return
        if self.remote is not None:
            health = self.remote.health()
            head = (
                f"service: {health['status']}  sessions: {health['sessions']}  "
                f"inflight: {health['inflight']}"
            )
        else:
            health = self.sdb.health()
            head = f"engine: {health['status']}"
        self._print(head)
        daemon = health["daemon"]
        line = f"  daemon: {daemon['state']}"
        if daemon["last_error"]:
            line += f" (last error: {daemon['last_error']})"
        self._print(line)
        if health["degraded"]:
            self._print(f"  degraded: {health['degraded_reason']}")
        if health["supervisor"] is None:
            self._print("  supervisor: (off)")
        for name, info in (health["supervisor"] or {}).items():
            self._print(
                f"  supervisor[{name}]: restarts={info['restarts']} "
                f"failures={info['consecutive_failures']} "
                f"tripped={info['tripped']}"
            )
        for name in health["tripped"]:
            self._print(f"  TRIPPED: {name} (\\service recover to reset)")

    def _wal(self, arguments: list[str]) -> None:
        """``\\wal [status|checkpoint]`` -- default status."""
        action = arguments[0] if arguments else "status"
        if action == "checkpoint":
            info = self.sdb.checkpoint()
            self._print(
                f"checkpoint written at lsn {info.lsn} "
                f"({info.bytes_written} bytes, "
                f"{info.segments_truncated} segments truncated)"
            )
            return
        if action != "status":
            self._print("usage: \\wal [status|checkpoint]")
            return
        status = self.sdb.db.wal_status()
        if not status.get("durable"):
            self._print("wal: in-memory (no on-disk durability)")
            self._print(
                f"  records: {status['records']}  last_lsn: {status['last_lsn']}  "
                f"commits: {status['commits']}"
            )
            return
        self._print("wal: durable")
        self._print(
            f"  records: {status['records']}  last_lsn: {status['last_lsn']}  "
            f"commits: {status['commits']}  fsyncs: {status['fsyncs']}"
        )
        self._print(
            f"  segments: {status['segments']}  "
            f"bytes_on_disk: {status['bytes_on_disk']}  "
            f"group_commit_every: {status['group_commit_every']}"
        )
        self._print(
            f"  checkpoints: {status.get('checkpoints', 0)}  "
            f"last_checkpoint_lsn: {status.get('last_checkpoint_lsn')}  "
            f"segments_truncated: {status.get('segments_truncated', 0)}"
        )
        recovery = status.get("last_recovery")
        if recovery is None:
            self._print("  last_recovery: (none this session)")
            return
        self._print(
            f"  last_recovery: replayed {recovery['records_replayed']} records "
            f"({recovery['txns_committed']} txns), discarded "
            f"{recovery['records_discarded']} records "
            f"({recovery['txns_discarded']} txns)"
        )
        self._print(
            f"    segments_scanned: {recovery['segments_scanned']}  "
            f"frames_decoded: {recovery['frames_decoded']}  "
            f"had_checkpoint: {recovery['had_checkpoint']}  "
            f"torn_tail: {recovery['torn_offset'] is not None}"
        )

    def _require(self, arguments: list[str], n: int, usage: str) -> None:
        if len(arguments) != n:
            raise DatabaseError(f"usage: {usage}")

    def _connect(self, address: str) -> None:
        """``\\connect HOST:PORT`` -- attach this shell to a running service."""
        host, _, port_text = address.rpartition(":")
        if not host or not port_text.isdigit():
            raise DatabaseError("usage: \\connect HOST:PORT")
        if self.remote is not None:
            self._disconnect(silent=True)
        self.remote = ServiceClient(
            host,
            int(port_text),
            connect_timeout=5.0,
            read_timeout=60.0,
            retry=RetryPolicy(),
        )
        self._print(
            f"connected to {address} "
            f"(session {self.remote.session_id}, "
            f"protocol v{self.remote.greeting.get('version')}, "
            f"retries on)"
        )

    def _disconnect(self, silent: bool = False) -> None:
        if self.remote is None:
            if not silent:
                self._print("not connected")
            return
        remote, self.remote = self.remote, None
        remote.close()
        if not silent:
            self._print("disconnected (back to embedded instance)")

    def _load(self, table_name: str, path: str) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            documents = [json.loads(line) for line in handle if line.strip()]
        if self.remote is not None:
            report = self.remote.load(table_name, documents)
            self._print(
                f"loaded {report['loaded']} documents "
                f"({report['new_attributes']} new attributes)"
            )
            return
        if table_name not in self.sdb.collections():
            self.sdb.create_collection(table_name)
        report = self.sdb.load(table_name, documents)
        self._print(
            f"loaded {report.n_documents} documents "
            f"({report.new_attributes} new attributes)"
        )

    def _describe(self, table_name: str) -> None:
        rows = [
            [key, sql_type.value, storage]
            for key, sql_type, storage in self.sdb.logical_schema(table_name)
        ]
        self._print(format_table(["key", "type", "storage"], rows))


def main(argv: list[str] | None = None) -> int:
    """Entry point: read-eval-print over stdin."""
    shell = SinewShell()
    print("Sinew shell -- \\q to quit, \\load NAME FILE to load JSON lines")
    try:
        while shell.running:
            prompt = "sinew> " if shell.remote is None else "sinew(remote)> "
            try:
                line = input(prompt)
            except EOFError:
                break
            shell.run_line(line)
    except KeyboardInterrupt:
        pass
    finally:
        if shell.remote is not None:
            shell.remote.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
