"""In-process tracing: spans around the calls into each distdetect module.

The traced run imports the program and calls its entry point in this process,
so no span is lost in a worker process. Process pools are replaced by an
inline executor whatever `--workers` says, and every target below is wrapped
in a span for the duration of one invocation. Spans stay in memory; the
caller summarizes them into self times and counts.
"""

import contextlib
import importlib
import io
import sys
import time
import traceback
from collections import defaultdict

# (module, attribute, span name). A target missing from the program is skipped
# and reports zero calls.
TARGETS = (
    ("config", "load_config", "config.load_config"),
    ("signals", "validate_model", "signals.validate_model"),
    ("network", "expected_matrix", "network.expected_matrix"),
    ("network", "sigma2", "network.sigma2"),
    ("network", "check_expected_connectivity", "network.check_expected_connectivity"),
    ("network", "mixing_deviation_sum", "network.mixing_deviation_sum"),
    ("network", "NetworkProcess.draw", "network.draw"),
    ("analysis", "simulate_trial", "analysis.simulate_trial"),
    ("analysis", "monte_carlo_verify", "analysis.monte_carlo_verify"),
    # self time of the command functions is their output formatting and writing
    ("cli", "cmd_simulate", "cli.output"),
    ("cli", "cmd_verify", "cli.output"),
    ("cli", "cmd_spectral", "cli.output"),
)


class InlineExecutor:
    """Stands in for ProcessPoolExecutor and runs every task in this process."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return list(map(fn, *iterables))


class Tracer:
    """Records spans as (invocation, span id, parent id, name, start, end)."""

    def __init__(self):
        self.spans = []
        self.invocation = 0
        self._stack = [0]
        self._last_id = 0

    def span(self, fn, name):
        clock, stack, spans = time.perf_counter, self._stack, self.spans

        def traced(*args, **kwargs):
            self._last_id += 1
            sid, parent = self._last_id, stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.invocation, sid, parent, name, start, end))

        return traced


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct children;
    the spans nest strictly because everything runs in one thread.
    """
    child = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for _, sid, _, name, start, end in spans:
        agg = out[name]
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child[sid]
    return dict(out)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "distdetect" or name.startswith("distdetect."))]


@contextlib.contextmanager
def in_process(tracer=None):
    """Run pools inline; with a tracer, also wrap every target in a span."""
    cli = importlib.import_module("distdetect.cli")
    saved = []

    def replace(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    if hasattr(cli, "ProcessPoolExecutor"):
        replace(cli, "ProcessPoolExecutor", InlineExecutor)
    if tracer is not None:
        modules = _package_modules()
        for module, path, name in TARGETS:
            owner = sys.modules.get(f"distdetect.{module}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapped = tracer.span(fn, name)
            # also rebind names imported elsewhere with `from .x import f`
            for holder in [owner] + [m for m in modules if m is not owner]:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        replace(holder, key, wrapped)
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def invoke(main, argv, tracer=None):
    """Call the entry point `main(argv)` in this process; returns (exit code, wall s, log)."""
    log = io.StringIO()
    with in_process(tracer), contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        if tracer is not None:
            tracer.invocation += 1
            main = tracer.span(main, "invocation")
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback fails the invocation, as it would a child process
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    return code, wall, log.getvalue()
