"""The layer ledger: one cProfile pass folded into the program's layers.

Each profiled function's exclusive (``tottime``) seconds are charged to
the layer of the ``src/repro`` module that defines it.  A frame outside
``repro`` (a builtin, the standard library, the benchmark itself) is
charged to the ``repro`` functions that called it, split by the time
each caller accounts for; a frame no ``repro`` function called goes to
``other``.  Every second of the profile lands in exactly one layer, so
the layers sum to the profiled total -- the conservation rule the
``fct-conservation`` audit checker applies to flow completion times.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

LAYERS = ("sim", "net", "transport.sender", "transport.receiver",
          "protocols", "obs", "experiments", "parallel", "other")

#: Top-level ``repro`` packages and the layer each belongs to.
_PACKAGE_LAYERS = {
    "sim": "sim",
    "net": "net",
    "protocols": "protocols", "core": "protocols",
    "telemetry": "obs", "audit": "obs", "obs": "obs", "hb": "obs",
    "chaos": "obs",
    "experiments": "experiments", "workloads": "experiments",
    "planetlab": "experiments", "metrics": "experiments",
    "parallel": "parallel",
}
#: Single modules whose layer differs from their package's.  The trace
#: recorder lives in ``repro.sim`` but is the observability plane's
#: entry point: its cost is what observing costs.
_MODULE_LAYERS = {
    "fastpath.py": "obs",
    "sim/trace.py": "obs",
    "transport/sender.py": "transport.sender",
    "transport/sacks.py": "transport.sender",
    "transport/pacing.py": "transport.sender",
    "transport/rtt.py": "transport.sender",
    "transport/flow.py": "transport.sender",
    "transport/receiver.py": "transport.receiver",
}

#: Counted entry points, as (module path under ``repro``, function name),
#: for the counts no program counter keeps.
ENTRY_POINTS = {
    # Every packet a sender is handed: ACKs and SYN-ACKs.
    "acks": ("transport/sender.py", "on_packet"),
    "receiver_packets": ("transport/receiver.py", "on_packet"),
    # One call per packet serialized on the per-packet reference path;
    # train-planned packets never schedule it.
    "per_packet_tx": ("net/link.py", "_finish_transmission"),
    # Every trace emission, enabled or not.
    "records": ("sim/trace.py", "record"),
}

Func = Tuple[str, int, str]


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """The layer of a frame from ``filename``; None outside ``repro``."""
    prefix = package_dir + os.sep
    if not filename.startswith(prefix):
        return None
    rel = filename[len(prefix):].replace(os.sep, "/")
    if rel in _MODULE_LAYERS:
        return _MODULE_LAYERS[rel]
    return _PACKAGE_LAYERS.get(rel.split("/")[0], "other")


def fold(stats: Dict[Func, tuple], package_dir: str) -> Dict[str, float]:
    """Exclusive seconds per layer from ``cProfile.Profile().stats``.

    ``stats`` maps a function to ``(cc, nc, tt, ct, callers)`` and
    ``callers`` maps each caller to ``(nc, cc, tt, ct)``, the callee's
    time under that caller.
    """
    shares_memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, visiting: set) -> Dict[str, float]:
        layer = layer_of(func[0], package_dir)
        if layer is not None:
            return {layer: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:  # too quick to time: split by call count instead
            weights = {c: v[0] for c, v in callers.items()}
            total = sum(weights.values())
        out: Dict[str, float] = {}
        if total <= 0 or func in visiting:
            out = {"other": 1.0}
        else:
            visiting.add(func)
            for caller, weight in weights.items():
                for layer, share in shares(caller, visiting).items():
                    out[layer] = out.get(layer, 0.0) + share * weight / total
            visiting.discard(func)
        shares_memo[func] = out
        return out

    folded = {layer: 0.0 for layer in LAYERS}
    for func, entry in stats.items():
        tottime = entry[2]
        for layer, share in shares(func, set()).items():
            folded[layer] += tottime * share
    return folded


def conserves(folded: Dict[str, float], total: float) -> bool:
    """Whether the layers sum to the profiled total (float rounding
    aside)."""
    return abs(sum(folded.values()) - total) <= 1e-9 * max(total, 1.0)


def call_counts(stats: Dict[Func, tuple], package_dir: str
                ) -> Dict[str, int]:
    """Calls made to each of :data:`ENTRY_POINTS`."""
    counts = {}
    for key, (rel, name) in ENTRY_POINTS.items():
        path = os.path.join(package_dir, *rel.split("/"))
        counts[key] = sum(entry[1] for func, entry in stats.items()
                          if func[0] == path and func[2] == name)
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(folded: Dict[str, float], total_s: float,
                  untraced_cpu_s: float, c: Dict[str, float]
                  ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``c`` holds the traced pass's counts: the program's counters, the
    :data:`ENTRY_POINTS` call counts, and the simulator, flow and
    duplicate totals the benchmark reads off its results.
    """
    m: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (folded[layer], "s")
        m[f"{layer}.share"] = (_ratio(folded[layer], total_s), "fraction")
    m["traced.total_s"] = (total_s, "s")
    m["traced.overhead"] = (_ratio(total_s, untraced_cpu_s), "x")
    fired, absorbed = c["events_fired"], c["events_absorbed"]
    m["sim.events_fired"] = (fired, "count")
    m["sim.events_absorbed"] = (absorbed, "count")
    m["sim.absorbed_share"] = (_ratio(absorbed, fired + absorbed), "fraction")
    m["sim.ns_per_event"] = (_ratio(folded["sim"] * 1e9, fired), "ns")
    packets, drops = c["packets"], c["drops"]
    m["net.packets"] = (packets, "count")
    m["net.drops"] = (drops, "count")
    m["net.drop_share"] = (_ratio(drops, packets + drops), "fraction")
    m["net.ns_per_packet"] = (_ratio(folded["net"] * 1e9, packets), "ns")
    m["net.per_packet_share"] = (_ratio(c["per_packet_tx"], packets),
                                 "fraction")
    sent = c["segments"] + c["retx"]
    m["transport.sender.acks"] = (c["acks"], "count")
    m["transport.sender.ns_per_ack"] = (
        _ratio(folded["transport.sender"] * 1e9, c["acks"]), "ns")
    m["transport.sender.retx_share"] = (_ratio(c["retx"], sent), "fraction")
    m["transport.sender.rto_fired"] = (c["rto_fired"], "count")
    m["transport.sender.recoveries"] = (c["recoveries"], "count")
    m["transport.receiver.packets"] = (c["receiver_packets"], "count")
    m["transport.receiver.dup_share"] = (
        _ratio(c["duplicates"], c["receiver_packets"]), "fraction")
    m["protocols.ropr_retx"] = (c["ropr_retx"], "count")
    m["protocols.ropr_share"] = (_ratio(c["ropr_retx"], c["segments"]),
                                 "fraction")
    m["experiments.sims"] = (c["sims"], "count")
    m["experiments.flows"] = (c["flows"], "count")
    m["obs.records"] = (c["records"], "count")
    m["obs.ns_per_record"] = (_ratio(folded["obs"] * 1e9, c["records"]),
                              "ns")
    return m

