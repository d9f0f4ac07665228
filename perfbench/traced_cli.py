"""Run ``envlab.cli.main`` with a span recorder around every public function.

Usage: PERFBENCH_SPANS=spans.json python3 traced_cli.py <envlab arguments...>

Each public function of the nine envlab modules is replaced, in every envlab
module namespace that binds it, by a wrapper that records one span: function,
start, end, parent span and whether an exception left it.  Modules import
each other's functions by name, so patching only the defining module would
miss most calls.  Private helpers stay unwrapped and count toward their
public caller's self time.  A few functions also record a work count taken
from their arguments or result.  Spans stay in memory and are written to
$PERFBENCH_SPANS once, when the CLI returns; stdout, stderr and the exit
code are the CLI's own.
"""

import functools
import json
import math
import os
import sys
import time
import types

MODULES = ("hilbert", "envariance", "born", "pointer", "records",
           "frequencies", "continuum", "report", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _left_dim(state, cut):
    left, _ = cut.sides(state.n_subsystems)
    return math.prod(state.dims[i] for i in left)


def _file_bytes(source):
    return os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0


# work counts, from (args, kwargs, result) of a call that returned
WORK = {
    # d_left * d_right of the cut, which is every amplitude of the state
    "hilbert.schmidt": lambda a, k, r: _arg(a, k, 0, "state").amps.size,
    "hilbert.load_state": lambda a, k, r: _file_bytes(_arg(a, k, 0, "state_file")),
    # the scan covers every denominator from the number of terms to m_max
    "born.rationalize": lambda a, k, r: (int(_arg(a, k, 1, "m_max"))
                                         - len(_arg(a, k, 0, "amplitudes")) + 1),
    "born.fine_grain": lambda a, k, r: r.amps.size,
    "envariance.check_envariance": lambda a, k, r: _left_dim(
        _arg(a, k, 0, "state"), _arg(a, k, 1, "cut")) ** 2,
    "frequencies.build_superensemble_explicit": lambda a, k, r: r[0].amps.size,
    "continuum.discretize": lambda a, k, r: _arg(a, k, 1, "mesh").cells,
    "report.emit_report": lambda a, k, r: len(r.encode()),
}


class Recorder:
    def __init__(self):
        self.names = []
        self.spans = []   # [name id, start ns, end ns, parent index, failed, work]
        self._stack = []

    def wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[index] = [fid, start, end, parent, 1, 0]
                raise
            end = clock()
            stack.pop()
            count = work(args, kwargs, result) if work else 0
            spans[index] = [fid, start, end, parent, 0, count]
            return result

        return span

    def install(self):
        """Wrap public functions and rebind them in every envlab namespace."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"envlab.{short}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "envlab" and not name.startswith("envlab."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])


def main():
    out_path = os.environ["PERFBENCH_SPANS"]
    start = time.perf_counter_ns()
    import envlab.cli
    import_ns = time.perf_counter_ns() - start
    recorder = Recorder()
    recorder.install()
    try:
        code = envlab.cli.main(sys.argv[1:])
    finally:
        with open(out_path, "w") as fh:
            json.dump({"import_ns": import_ns, "names": recorder.names,
                       "spans": recorder.spans}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
