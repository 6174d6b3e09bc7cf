"""edit-serve: ``reanalyze`` requests to a ``python -m repro serve`` daemon.

One op is one request, verify off, sent over one connection in a closed
loop with no think time: the next request leaves when the last response
is in.  The requests replay a seeded stream of one-step edits of one
edit-bench program (see :func:`perfbench.corpus.edit_stream`).  Each run
starts a fresh daemon, because its caches and intern tables grow with
every request.
"""

from __future__ import annotations

import subprocess
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from . import corpus, layers, spans
from .common import LAUNCHER, ROOT, Tally, child_env, cli_import_ms, keep_going
from .common import latency_summary, min_samples, python, relative, warm_imports, workdir

#: Declared tail: p80 needs 50 requests; a 20 s run yields 80 to 160.
TAIL_PERCENTILE = 80
SETUP_REPEATS = 5
HANDLER = "server.request_seconds{op=reanalyze}"
#: A request slower than this fails the op and ends the loop.
REQUEST_TIMEOUT = 30


class Daemon:
    """A daemon process listening on a unix socket under the work directory."""

    def __init__(self, work: Path, index: int, trace_dir: Optional[Path] = None):
        self.socket = relative(work / f"d{index}.sock")
        self.log = open(work / f"d{index}.log", "wb")
        if trace_dir is None:
            argv = python("-m", "repro", "serve", "--socket", self.socket)
        else:
            argv = python(str(LAUNCHER), "serve", relative(trace_dir), "--socket", self.socket)
        started = time.perf_counter()
        self.process = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                        stdout=self.log, stderr=subprocess.STDOUT)
        try:
            self._wait_healthy(started)
        except BaseException:
            self.process.kill()
            self.process.wait()
            self.log.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_healthy(self, started: float) -> None:
        from repro.server.client import AnalysisClient

        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}")
            try:
                with AnalysisClient(socket_path=self.socket, timeout=10) as client:
                    if client.health().get("ok"):
                        return
            except OSError:
                pass
            if time.perf_counter() - started > 60:
                raise RuntimeError("daemon did not answer health within 60s")
            time.sleep(0.002)

    def client(self):
        from repro.server.client import AnalysisClient

        return AnalysisClient(socket_path=self.socket, timeout=REQUEST_TIMEOUT)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        from repro.server.client import AnalysisClient

        try:
            with AnalysisClient(socket_path=self.socket, timeout=30) as client:
                client.shutdown()
        finally:
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.log.close()


def closed_loop(daemon: Daemon, versions: List[str], seconds: float, needed: int = 0) -> Dict:
    """Send requests back to back for ``seconds`` and at least ``needed``
    requests; returns what came back.

    ``sent`` holds ``(new version, round trip, response)`` per request.
    While a tracer is installed each request is a ``server.roundtrip``
    span, whose id the request's name carries into the daemon.
    """
    from repro.server.protocol import encode_frame

    sent: List[tuple] = []
    scrape: Dict = {}
    links = spans.Links()
    with daemon.client() as client:
        started = time.perf_counter()
        alive = True
        while alive and keep_going(started, seconds, len(sent), needed):
            index = len(sent)
            old, new = corpus.replay_pair(versions, index)
            with links.span("server.roundtrip", (f"req-{index}", None)) as args:
                name = f"perfbench:req-{index}:{args[spans.ID]}" if args[spans.ID] else "editbench"
                begun = time.perf_counter()
                try:
                    response = client.call("reanalyze", old_source=versions[old],
                                           new_source=versions[new], name=name, verify=False)
                except Exception as error:  # noqa: BLE001 - the connection is gone
                    response = {"ok": False, "error": {"code": type(error).__name__}}
                    alive = False
                rtt = time.perf_counter() - begun
            sent.append((new, rtt, response))
        wall = time.perf_counter() - started
        if alive:
            scrape = client.call("metrics")
    histogram = scrape.get("metrics", {}).get("histograms", {}).get(HANDLER, {})
    counters = scrape.get("metrics", {}).get("counters", {})
    return {
        "sent": sent,
        "wall": wall,
        "handler_s": histogram.get("sum_ns", 0) / 1e9 / max(1, histogram.get("count", 0)),
        "errors": counters.get("server.errors_total{op=reanalyze}", {}).get("value", 0)
        + counters.get("server.shed_total", {}).get("value", 0),
        "response_bytes": [len(encode_frame(response)) for _, _, response in sent],
    }


def references(versions: List[str], indices) -> Dict[int, str]:
    """Reference-engine digest of each version a request asked for."""
    from repro.analysis.engine import analyze_program_reference
    from repro.sil.normalize import parse_and_normalize

    expected = {}
    for index in sorted(set(indices)):
        program, info = parse_and_normalize(versions[index])
        expected[index] = corpus.digest(analyze_program_reference(program, info).canonical())
    return expected


def check(sent, expected: Dict[int, str], tally: Tally) -> List[float]:
    """Count every request; returns the round trips of those that matched."""
    good = []
    for new, rtt, response in sent:
        if not response.get("ok"):
            tally.record(False, response.get("error", {}).get("code", "error"))
        elif response.get("digest") != expected[new]:
            tally.record(False, "differs from the reference engine")
        else:
            tally.record(True)
            good.append(rtt)
    return good


def run(seed: int, seconds: float, trace: bool) -> Dict:
    versions = corpus.edit_stream(seed)
    budget = seconds / 2 if trace else seconds
    with workdir() as work:
        warm_imports()
        setups = []
        for index in range(SETUP_REPEATS):
            daemon = Daemon(work, index)
            setups.append(daemon.setup_s)
            if index < SETUP_REPEATS - 1:
                daemon.stop()
        try:
            loop = closed_loop(daemon, versions, budget, min_samples(TAIL_PERCENTILE))
            peak_rss_mb = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        if trace:
            from repro.obs.trace import Tracer, install_tracer, uninstall_tracer

            trace_dir = work / "spans"
            trace_dir.mkdir()
            traced_daemon = Daemon(work, SETUP_REPEATS, trace_dir)
            tracer = install_tracer(Tracer())
            try:
                traced = closed_loop(traced_daemon, versions, budget)
            finally:
                uninstall_tracer()
                traced_daemon.stop()
            spans_seen = spans.spans_of(spans.load_events(trace_dir) + tracer.drain())
            import_ms = cli_import_ms(work)
    runs = [loop] + ([traced] if trace else [])
    expected = references(versions, [new for result in runs for new, _, _ in result["sent"]])
    tally = Tally()
    for result in runs:
        check(result["sent"], expected, tally)
    good = check(loop["sent"], expected, Tally())
    rtts = [rtt for _, rtt, _ in loop["sent"]]
    summary = latency_summary(rtts, TAIL_PERCENTILE)
    report = {
        "inputs_sha256": corpus.digest(versions),
        "tally": tally,
        "latency": summary,
        "end_to_end": {
            "throughput_ops_s": len(good) / loop["wall"],
            "latency_p50_ms": summary["p50_ms"],
            "latency_tail_ms": summary["tail_ms"],
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if trace:
        per_layer = layers.from_spans(spans_seen, len(traced["sent"]), traced["wall"])
        per_layer["trace.overhead_ratio"] = layers.overhead(
            rtts, [rtt for _, rtt, _ in traced["sent"]])
        per_layer.update({
            "server.handler_ms": loop["handler_s"] * 1000.0,
            "server.transport_ms": (sum(rtts) / len(rtts) - loop["handler_s"]) * 1000.0,
            "server.response_kb":
                sum(loop["response_bytes"]) / len(loop["response_bytes"]) / 1024.0,
            "server.errors": loop["errors"],
            "cli.import_ms": import_ms,
        })
        report["per_layer"] = per_layer
    return report
