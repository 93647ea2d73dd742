"""A4 — Ablation: token combining window.

Sweeps the combining window and reports the message/latency trade-off:
tokens to the same component share a message (the counter is batchable,
so correctness is untouched), cutting the per-token message cost by the
batching factor at the price of up to one window of extra latency per
hop.
"""

from repro.runtime.combining import CombiningConfig
from repro.runtime.system import AdaptiveCountingSystem

TOKENS = 400


def run(window):
    config = CombiningConfig(window=window) if window else None
    system = AdaptiveCountingSystem(
        width=64, seed=44, initial_nodes=30, combining=config, service_time=0.05
    )
    system.converge()
    before = system.bus.messages_sent.get()  # the number, not the live counter
    tokens = [system.inject_token() for _ in range(TOKENS)]
    system.run_until_quiescent()
    assert sorted(t.value for t in tokens) == list(range(TOKENS))
    system.verify()
    messages = system.bus.messages_sent.get() - before
    mean_batch = system.combiner.stats.mean_batch if system.combiner else 1.0
    return messages, system.token_stats.mean_latency, mean_batch


def test_ablation_combining_window(report, benchmark):
    rows = []
    baseline_messages = None
    for window in (0.0, 0.5, 2.0, 8.0):
        messages, latency, mean_batch = run(window)
        if baseline_messages is None:
            baseline_messages = messages
        rows.append(
            (
                window,
                messages,
                "%.2f" % (messages / TOKENS),
                "%.2f" % mean_batch,
                "%.1f" % latency,
                "%.2f" % (baseline_messages / messages),
            )
        )
    report(
        "Ablation A4 - combining window (%d tokens, N=30, w=64)" % TOKENS,
        [
            "window",
            "token messages",
            "messages/token",
            "mean batch",
            "mean latency",
            "message reduction x",
        ],
        rows,
        notes="Counters are batchable, so combining preserves correctness exactly; "
        "the window trades per-hop latency for message count.",
    )
    assert int(rows[-1][1]) < int(rows[0][1])
    assert float(rows[-1][4]) > float(rows[0][4])

    benchmark(lambda: run(2.0)[0])
