"""Layer tracing for the benchmark's traced child.

Wraps the public functions of each ``extalg`` layer, rebinding every alias of a
function across the ``extalg.*`` namespaces (modules import each other's
functions by name, so patching only the defining module would miss calls) and
patching ``RootDatum`` methods on the class.  Each wrapped call pushes a frame
on one stack, so a layer's self time is its duration minus the time of the
wrapped calls nested inside it, and the self times of all layers plus the CLI
residue add up to the command time without overlap.

Functions called about 10**5 times per sweep are aggregated per call site
instead of keeping one span per call; generator functions are timed over each
resume of their iteration and count the items they yield.
"""

import functools
import os
import sys
import time

SPAN, AGG, GEN = "span", "agg", "gen"


def _len(result):
    return len(result)


def _count_lr_admissible(result):
    return result[0]


def _regular(result):
    return 0 if result is None else 1


def _cells(result):
    return len(result.mult)


def _support(result):
    return len(result.table)


#: (module, attribute path, metric prefix, mode, counter metric, counter function);
#: a GEN target's counter counts the items its iteration yields
TARGETS = (
    ("rootdata", "RootDatum.orbit2", "rootdata.orbit2", SPAN, "rootdata.orbit2.points", _len),
    ("rootdata", "RootDatum.chamber_rep2", "rootdata.chamber_rep2", AGG, None, None),
    ("rootdata", "RootDatum.reduce_to_dominant", "rootdata.reduce_to_dominant", AGG,
     "rootdata.reduce_to_dominant.regular", _regular),
    ("orders", "enumerate_dominant_below", "orders.enumerate_dominant_below", SPAN,
     "orders.enumerate_dominant_below.weights", _len),
    ("orders", "dominance_leq", "orders.dominance_leq", AGG, None, None),
    ("gpartitions", "count_lr", "gpartitions.count_lr", SPAN, "gpartitions.admissible",
     _count_lr_admissible),
    ("gpartitions", "is_admissible", "gpartitions.is_admissible", AGG, None, None),
    ("gpartitions", "enumerate_associated", "gpartitions.enumerate_associated", GEN,
     "gpartitions.candidates", None),
    ("gpartitions", "form_keys", "gpartitions.form_keys", AGG, None, None),
    ("constructor", "construct", "constructor.construct", SPAN, None, None),
    ("constructor", "certify_theorem", "constructor.certify_theorem", SPAN, None, None),
    ("weyl_oracle", "freudenthal", "weyl_oracle.freudenthal", SPAN,
     "weyl_oracle.freudenthal.cells", _cells),
    ("weyl_oracle", "klimyk_tensor", "weyl_oracle.klimyk_tensor", SPAN,
     "weyl_oracle.klimyk_tensor.components", _len),
    ("weyl_oracle", "lusztig_E", "weyl_oracle.lusztig_E", SPAN, None, None),
    ("weyl_oracle", "q_kostant", "weyl_oracle.q_kostant", AGG, None, None),
    ("exterior_oracle", "graded_exterior_character",
     "exterior_oracle.graded_exterior_character", SPAN,
     "exterior_oracle.graded_exterior_character.support", _support),
    ("exterior_oracle", "graded_decompose", "exterior_oracle.graded_decompose", SPAN,
     "exterior_oracle.graded_decompose.peel_steps", _len),
    ("genexp", "closed_E", "genexp.closed_E", SPAN, None, None),
    ("genexp", "recur_E", "genexp.recur_E", SPAN, None, None),
    ("recurrence", "minuscule_row", "recurrence.minuscule_row", SPAN, None, None),
    ("recurrence", "verify_aggregate", "recurrence.verify_aggregate", SPAN, None, None),
)

#: memo tables whose size at the end of a sweep is reported
MEMOS = (
    ("weyl_oracle", "_dominant_cache", "weyl_oracle.freudenthal_memo.size"),
    ("weyl_oracle", "_kostant_memo", "weyl_oracle.kostant_memo.size"),
)

_clock = time.perf_counter  # CLOCK_MONOTONIC on Linux, as child.now()


class Tracer:
    """Per-process span and counter store; one instance per traced sweep."""

    def __init__(self):
        self.stats = {}      # prefix -> [calls, incl_s, self_s, counter value]
        self.counters = {}   # counter metric -> prefix
        self.sites = {}      # (prefix, call site) -> [calls, incl_s, self_s]
        self.spans = []      # (prefix, command, parent span, start, end)
        self.absent = []     # targets not found in this version of extalg
        self.cli_self_s = 0.0
        self.command = -1
        # frame: [time covered by nested wrapped calls, span id seen by nested
        # calls, id of the enclosing span]
        self._stack = [[0.0, -1, -1]]

    # -- command boundaries ------------------------------------------------

    def begin_command(self, index):
        self.command = index
        self._stack = [[0.0, -1, -1]]

    def end_command(self, start, end):
        self.cli_self_s += (end - start) - self._stack[0][0]

    def add_probe(self, seconds):
        """Charge a speed-probe sample to no layer: it covers part of the current frame."""
        self._stack[-1][0] += seconds

    # -- installation ------------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target, rebinding all its aliases in loaded extalg modules."""
        import extalg.cli  # noqa: F401  (loads every layer module)

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "extalg" or name.startswith("extalg."))]
        for module_name, path, prefix, mode, counter, count_fn in targets:
            owner = sys.modules.get(f"extalg.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(prefix)
                continue
            if counter is not None:
                self.counters[counter] = prefix
            wrapper = self._wrap(prefix, original, mode, counter is not None, count_fn)
            setattr(owner, attr, wrapper)
            if not outer:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)

    def _wrap(self, prefix, fn, mode, counted, count_fn):
        stats = self.stats.setdefault(prefix, [0, 0.0, 0.0, 0 if counted else None])
        tracer = self

        if mode == GEN:
            def timed_iter(gen, site):
                while True:
                    frame = tracer._push(False)
                    t0 = _clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._pop(stats, frame, t0, _clock(), site)
                    if counted:
                        stats[3] += 1
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stats[0] += 1
                return timed_iter(fn(*args, **kwargs), (prefix, _site()))
            return wrapper

        span = mode == SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._push(span)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stats[0] += 1
                tracer._pop(stats, frame, t0, t1, None if span else (prefix, _site()),
                            prefix if span else None)
            if count_fn is not None:
                stats[3] += count_fn(result)
            return result
        return wrapper

    def _push(self, span):
        parent = self._stack[-1][1]
        if span:
            own = len(self.spans)
            self.spans.append(None)  # filled in when the call returns
        else:
            own = parent
        frame = [0.0, own, parent]
        self._stack.append(frame)
        return frame

    def _pop(self, stats, frame, t0, t1, site, span_prefix=None):
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        self_s = dur - frame[0]
        stack[-1][0] += dur
        stats[1] += dur
        stats[2] += self_s
        if site is not None:
            agg = self.sites.get(site)
            if agg is None:
                agg = self.sites[site] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += self_s
        if span_prefix is not None:
            self.spans[frame[1]] = (span_prefix, self.command, frame[2], t0, t1)

    # -- results -----------------------------------------------------------

    def report(self):
        """Layer totals, counters, memo sizes, call-site aggregates and spans as JSON data."""
        counters = {metric: self.stats[prefix][3] for metric, prefix in self.counters.items()}
        for module_name, attr, metric in MEMOS:
            table = getattr(sys.modules.get(f"extalg.{module_name}"), attr, None)
            if table is None:
                self.absent.append(metric)
            else:
                counters[metric] = len(table)
        return {
            "layers": {prefix: {"calls": calls, "incl_s": incl, "self_s": self_s}
                       for prefix, (calls, incl, self_s, _) in self.stats.items()},
            "counters": counters,
            "cli_self_s": self.cli_self_s,
            "absent": self.absent,
            "sites": sorted([prefix, _site_name(site), *agg]
                            for (prefix, site), agg in self.sites.items()),
            "spans": self.spans,
        }


def _site():
    """Caller of the wrapped function as (code object, line); formatted by report()."""
    frame = sys._getframe(2)
    return frame.f_code, frame.f_lineno


def _site_name(site):
    code, line = site
    return f"{os.path.basename(code.co_filename)}:{code.co_name}:{line}"
