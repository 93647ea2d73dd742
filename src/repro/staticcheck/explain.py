"""Long-form explanations for every diagnostic code (``--explain``).

:data:`EXPLANATIONS` pairs each :data:`~repro.staticcheck.diagnostics.KNOWN_CODES`
entry with a *rationale* (why the rule exists, anchored in the paper or
the execution model) and a *minimal example* that triggers it — the
same shape as the negative fixtures under ``tests/staticcheck/``. The
schema test asserts this registry covers the code registry exactly, so
an explanation cannot go missing or stale-reference a removed code.

``repro check --explain RSC610`` renders one entry; an unknown code is
a usage error (exit 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.staticcheck.diagnostics import KNOWN_CODES


@dataclass(frozen=True)
class Explanation:
    """Rationale and a minimal triggering example for one code."""

    rationale: str
    example: str


EXPLANATIONS: Dict[str, Explanation] = {
    # ------------------------------------------------------------------
    # Pass 1 — network structure
    # ------------------------------------------------------------------
    "RSC101": Explanation(
        "Balancer wiring is the substrate every other guarantee stands "
        "on: widths must match declared levels, wire indices must be in "
        "range, and no wire may appear twice in one level.",
        "Network(width=4, levels=[[Balancer(0, 0)]])  # duplicate wire 0",
    ),
    "RSC102": Explanation(
        "A counting network permutes tokens; if the declared output "
        "order is not a permutation of the wires, downstream counters "
        "double-count or skip outputs.",
        "outputs = [0, 1, 1, 3]  # wire 2 missing, wire 1 twice",
    ),
    "RSC103": Explanation(
        "Members must form a DAG with a consistent layer assignment, or "
        "tokens can revisit a balancer and the depth bound of Lemma 2.2 "
        "is meaningless.",
        "a.successor = b; b.successor = a  # cycle between members",
    ),
    "RSC104": Explanation(
        "Every internal wire needs exactly one producer and one "
        "consumer; a dangling wire silently drops tokens, a shared one "
        "merges streams the topology says are distinct.",
        "level 2 consumes wire 5 which no level 1 balancer produces",
    ),
    "RSC105": Explanation(
        "The 0-1 principle is the certification shortcut: a width-w "
        "network that counts all 0/1 streams counts all streams. A "
        "failure here means the structure is not a counting network at "
        "all.",
        "swap one comparator in BITONIC[4]; certify() reports RSC105",
    ),
    "RSC106": Explanation(
        "Depth is the paper's cost model (Lemma 2.2): a bitonic "
        "network's depth is exactly d(d+1)/2 for w = 2^d. Deviation "
        "means levels were merged or duplicated during construction.",
        "bitonic_network(8).depth != 6  # 3*4/2",
    ),
    "RSC107": Explanation(
        "Lemma 2.3 lower-bounds effective width; an adaptive cut that "
        "narrows below it cannot sustain the claimed throughput, so the "
        "adaptivity rules must never produce one.",
        "a cut collapsing BITONIC[8] to effective width 1",
    ),
    "RSC108": Explanation(
        "Exhaustive 0-1 certification is 2^w streams; beyond the limit "
        "the checker cannot certify and says so rather than pretending.",
        "certify(bitonic_network(1024))  # not exhaustively checkable",
    ),
    # ------------------------------------------------------------------
    # Pass 2 — cuts and transitions
    # ------------------------------------------------------------------
    "RSC201": Explanation(
        "A cut with no members counts nothing; it usually means a merge "
        "rule fired past the root.",
        "Cut(members=[])",
    ),
    "RSC202": Explanation(
        "Cut members are paths into the component tree; a path that "
        "walks off the tree references a component that cannot exist at "
        "this width.",
        "Cut(members=['0.3']) on a binary tree  # child index 3",
    ),
    "RSC203": Explanation(
        "If one member is an ancestor of another, the tokens under the "
        "descendant are counted twice — once by each component.",
        "Cut(members=['0', '0.1'])  # '0' contains '0.1'",
    ),
    "RSC204": Explanation(
        "Every root-to-leaf path must cross exactly one member; a "
        "coverage hole is a token stream no component owns.",
        "Cut(members=['0.0'])  # paths under '0.1' uncovered",
    ),
    "RSC205": Explanation(
        "A transition relates two cuts of the *same* tree; comparing "
        "cuts of different widths conflates unrelated configurations.",
        "transition(cut_of_width(8), cut_of_width(16))",
    ),
    "RSC206": Explanation(
        "Legal reconfiguration is subtree-aligned splits and merges "
        "that conserve tokens (Section 3.2); anything else can lose or "
        "mint counts mid-flight.",
        "replace member '0' by ['0.0'] alone  # '0.1' tokens dropped",
    ),
    # ------------------------------------------------------------------
    # Pass 3 — codebase lint
    # ------------------------------------------------------------------
    "RSC300": Explanation(
        "An unreadable or unparseable file silently shrinks lint "
        "coverage; the pass reports the gap instead of skipping it.",
        "lint a file containing 'def f(:' (syntax error)",
    ),
    "RSC301": Explanation(
        "Unseeded randomness breaks run-to-run reproducibility — the "
        "whole repro harness keys on explicit Random(seed).",
        "delay = random.random()  # module-level RNG",
    ),
    "RSC302": Explanation(
        "Simulation code must live in simulated time; a wall-clock read "
        "couples results to machine speed and destroys determinism.",
        "start = time.time()  # inside repro.sim",
    ),
    "RSC303": Explanation(
        "Handler-context code that calls another process's methods "
        "directly bypasses latency, queueing, and crash semantics the "
        "bus models.",
        "def handle_message(self, m): self.peer.handle_message(m)",
    ),
    "RSC304": Explanation(
        "A mutable default is one shared object across all calls — "
        "state leaks between supposedly independent invocations.",
        "def route(self, token, path=[]): path.append(token)",
    ),
    "RSC306": Explanation(
        "Eager string formatting at a record call pays the formatting "
        "cost even when recording is off — the obs fast path is a "
        "single enabled check.",
        "obs.note('tok %s' % token)  # formats even when disabled",
    ),
    "RSC307": Explanation(
        "Envelope is a freelist-pooled hot-path record: its home "
        "module resets every mutable field on reuse and bumps a "
        "generation stamp so stale references are detectable. Direct "
        "construction elsewhere bypasses the pool — the record never "
        "recycles, pool accounting lies, and a field added later is "
        "initialised in one place but not the other.",
        "envelope = Envelope(bus, to, msg, kind, None, None)  # use bus.send(...)",
    ),
    "RSC308": Explanation(
        "The scenario library is committed data: the smoke matrix and "
        "the sanitizer load every spec under scenarios/library/ at "
        "run time, so a schema-invalid spec would otherwise surface "
        "only as a matrix failure. The lint walk validates each spec "
        "through the same validator repro smoke uses and reports each "
        "problem with its dotted-path message.",
        '{"arrivals": {"kind": "bursty"}}  # valid kinds: burst, ...',
    ),
    # ------------------------------------------------------------------
    # Pass 5 — bounded model checking
    # ------------------------------------------------------------------
    "RSC500": Explanation(
        "The explorer hit an internal error (an error), or its results "
        "are incomplete, not green (a warning): the schedule space was "
        "truncated, or a split or merge deferred mid-schedule, so the "
        "rest of that schedule no longer matched the live cut.",
        "model_check(ModelCheckConfig(depth=1, max_schedules=2))  # 3 exist",
    ),
    "RSC504": Explanation(
        "In a crash-free schedule every issued token must reach an "
        "output wire; one that does not was dropped by protocol logic, "
        "not by failure.",
        "a schedule where a forwarded token is never re-injected",
    ),
    "RSC505": Explanation(
        "The step property is the paper's definition of counting "
        "(quiescent output counts differ by at most one, prefix-"
        "heavy); violating it at quiescence means the network is not "
        "counting.",
        "output counts [3, 1] at quiescence  # gap of 2",
    ),
    # ------------------------------------------------------------------
    # Pass 6 — schedule-perturbation sanitizer
    # ------------------------------------------------------------------
    "RSC610": Explanation(
        "The sanitizer re-ran a library scenario (repro.scenarios) with "
        "same-timestamp events reordered by a seeded RNG — a schedule every "
        "correct implementation must tolerate, since FIFO tie-breaking "
        "is an implementation detail, not a spec. An invariant failure "
        "(token conservation, step property, verify()) or crash under "
        "such a schedule is a demonstrated ordering dependence.",
        "repro check --sanitize=3  # scenario fails under seed 2",
    ),
    "RSC611": Explanation(
        "One perturbation seed fully determines the schedule, so "
        "running it twice must reproduce the run summary exactly. "
        "Divergence (or a crash only the second run hits) means "
        "nondeterminism *beyond* the schedule — typically iteration over "
        "an unordered container "
        "or leaked cross-run global state — which would make every "
        "other finding unreproducible. Fix this before anything else.",
        "for node in self.members_set: ...  # set iteration order leaks",
    ),
}


def explain(code: str) -> Optional[str]:
    """Render one code's description, rationale, and example, or None
    for a code absent from :data:`KNOWN_CODES`."""
    normalized = code.strip().upper()
    if normalized not in KNOWN_CODES:
        return None
    entry = EXPLANATIONS[normalized]
    example = "\n".join("    " + line for line in entry.example.splitlines())
    return (
        "%s — %s\n\nRationale:\n%s\n\nExample (triggers the finding):\n%s"
        % (normalized, KNOWN_CODES[normalized], entry.rationale, example)
    )
