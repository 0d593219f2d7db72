#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from a completed `ft2-repro all` log.

Usage: python3 scripts/make_experiments_md.py /tmp/repro_final2.log > EXPERIMENTS.md
"""
import re
import sys

LOG = sys.argv[1] if len(sys.argv) > 1 else "/tmp/repro_final2.log"
text = open(LOG).read()


def table(title_substr: str) -> str:
    """Extract the ASCII table whose `== title ==` contains the substring."""
    pattern = re.compile(r"^== (.*?) ==\n((?:\|.*\n)+)", re.M)
    found = None
    for m in pattern.finditer(text):
        if title_substr in m.group(1):
            found = m  # keep the LAST occurrence (reruns append to the log)
    if found:
        return f"**{found.group(1)}**\n\n```text\n{found.group(2)}```\n"
    return f"*(table '{title_substr}' missing from log)*\n"


def headline() -> str:
    m = re.search(r"HEADLINE: (.*)", text)
    return m.group(1) if m else "(headline missing)"


PREAMBLE = """# EXPERIMENTS — paper vs. measured

All numbers below come from one recorded `./target/release/ft2-repro all`
run at the default sizing (12 inputs x 30 fault-injection trials per
campaign cell, seed `0xF72025`, single CPU core; Figs. 2 and 6 use internal
trial multipliers, Fig. 3 evaluates 96 fault-free inputs). CSV artifacts
live in `results/`; regenerate any row with `ft2-repro <id>` and scale up
with `FT2_INPUTS` / `FT2_TRIALS` (the paper's own campaign corresponds to
`FT2_INPUTS=50 FT2_TRIALS=500`). Every campaign figure is a sweep spec
(`crates/harness/src/experiments/campaigns.rs`) run by one runner, so each
campaign cell checkpoints under its own fingerprint and `--resume`
continues any figure bit-identically; `scripts/verify.sh` re-runs
`ft2-repro all` and compares every CSV in `results/` with the fresh run
(all but the wall-clock columns of Figs. 10 and 14 byte for byte).

**Reading guide.** The substrate is a scaled-down simulator (DESIGN.md
section 1), so absolute SDC rates are not expected to match the paper; the
reproduced claims are *orderings, ratios and mechanisms*: which scheme
wins, which fault model is worst, which layers are critical, where
protection breaks. The main scale artifact (DESIGN.md section 2b) is that
48-64-dim hidden states dilute single-fault perturbations ~64x less than
4096-dim production models, which raises every scheme's residual SDC floor
and caps FT2's measurable reduction below the paper's 92.92%.
"""

SECTIONS = [
    (
        "Table 1 — layer criticality & protection coverage",
        "Table 1 —",
        """Paper: V/OUT/FC2/UP/DOWN critical; K/Q/FC1/GATE not; Ranger covers no
linear layer, MaxiMals misses V_PROJ and UP_PROJ, Global Clipper misses the
MLP. **Exact match** — the structural heuristic ("critical iff no scaling
op or activation before the next linear layer"), evaluated over the op
graph of both architecture families, reproduces every cell of the paper's
Table 1, with zero profiling.""",
    ),
    (
        "Table 2 — models and tasks",
        "Table 2 —",
        """All seven models of the paper are represented with the correct
architecture family (Fig. 1a vs 1b), parameter counts of the originals for
the timing model, and math support limited to Llama2-7B and Qwen2-7B.""",
    ),
    (
        "Fig. 2 — motivation: existing protections leave SDCs behind",
        "Fig. 2 —",
        """Paper (Llama2-7B + GSM8K, EXP): unprotected ~4.5%, Ranger ~4.2%,
MaxiMals ~2.8%, Global Clipper 1.25%, FT2 0.19%. Measured: the same
qualitative picture — every baseline leaves a substantial SDC residue and
FT2 is several times better than the best baseline. Our Global Clipper
lands closer to Ranger than in the paper (its missing-MLP coverage costs
more here because the MLP carries a larger share of faults at our FFN
ratios).""",
    ),
    (
        "Fig. 3 — bounds do not transfer across datasets",
        "Fig. 3 —",
        """Paper: profiling bounds on four alternative corpora and protecting
SQuAD inference fault-free drops correct output by 1.09-1.81%. Measured:
directionally reproduced — the target-profiled bounds are transparent
(100.00%) while a mismatched corpus degrades fault-free accuracy (~1% for
the affected corpus at this seed). The effect is weaker and
corpus-dependent at simulator scale: it hinges on which token-keyed
"massive activation" spikes a small foreign corpus happens to miss, and
our 512-token vocabulary gives far fewer coverage holes than a real 32k-152k
token vocabulary.""",
    ),
    (
        "Fig. 4 — offline bound-profiling cost (the cost FT2 eliminates)",
        "Fig. 4 —",
        """Paper: 4.7-217.5 hours on A100; up to 36.7 h on H100. Measured with the
paper-scale roofline model: 2.4-210.0 A100-hours across the same grid
(GSM8K cheapest, XTREME-scale corpora the most expensive, H100 ~1.8x
faster) — matching the published range and log-scale shape.""",
    ),
    (
        "Fig. 6 — layer criticality probe (protect all but one)",
        "Fig. 6 —",
        """Paper (GPT-J + SQuAD): leaving V/OUT/FC2 unprotected leaves 0.75-1.82%
SDC; leaving K/Q/FC1 unprotected leaves only 0.29-0.38%. Measured
(conditional on the fault hitting the unprotected layer, which tightens
CIs): OUT_PROJ and FC2 leak by far the most while the non-critical
attention layers sit at zero, confirming the heuristic's split. Two
simulator-scale caveats: V_PROJ's conditional rate is seed-dependent
because an unprotected V fault is frequently absorbed by the *protected*
OUT_PROJ immediately downstream (the indirect-correction mechanism of
Take-away #2); and FC1's absolute contribution is elevated because it
receives 44% of all faults here (scaled FFN ratio) and clamp-corrected
propagation distortion is relatively larger at 64 hidden dims.""",
    ),
    (
        "Fig. 7 — bit-flip archetypes in binary16",
        "Fig. 7 —",
        """Exact reproduction of the mechanism: flipping the top exponent bit of a
small value yields an extreme magnitude (0.5 -> 32768); the same flip on a
value in (1,2) or (-2,-1) yields NaN; exact powers of two yield Inf. These
are properties of the from-scratch IEEE-754 binary16 implementation,
verified exhaustively over all 65536 bit patterns in the test suite.""",
    ),
    (
        "Fig. 8 — neuron value distributions and NaN-vulnerable shares",
        "Fig. 8 —",
        """Paper: non-critical layers (K/Q/FC1) are wide with a large share of
values in the NaN-vulnerable intervals; critical layers (V/OUT/FC2)
concentrate near zero. Measured: ~27-32% NaN-vulnerable for K/Q/FC1 vs
0-5% for V/OUT/FC2 — the same split, emerging from the shaped weight
statistics rather than being asserted.""",
    ),
    (
        "Fig. 9 — bound scaling (the key online-bounds design point)",
        "Fig. 9 —",
        """Paper (Qwen2-7B + GSM8K): unscaled first-token bounds *increase* SDC
above the unprotected baseline; scaling by just 1.25x recovers, and FT2 is
insensitive to the exact factor thereafter. Measured: the same
non-monotone signature — unscaled bounds are several times worse than no
protection (they clip benign late-position values, whose growth the
simulator models explicitly), moderate scales collapse the SDC rate, and
the plateau is flat through 10x.""",
    ),
    (
        "Fig. 10 — first-token share of inference time",
        "Fig. 10 —",
        """Paper: 1.89-8.33% for QA and 0.6-2.66% for math on A100; smaller on
H100. Measured with the paper-scale roofline model: ~2.1-2.5% (QA) and
~0.6% (math), H100 lower — inside the published bands. The simulator's own
share is ~30-50% because a serial CPU has no prefill parallelism; this is
exactly why the fault sampler weights steps by *time* rather than by
computation (DESIGN.md section 2b).""",
    ),
    (
        "Fig. 11 — resilience of the first-token generation",
        "Fig. 11 —",
        """Paper: faults restricted to the first token (with NaN correction, which
is all FT2 can do before bounds exist) are roughly as harmless as faults
under full FT2 protection. Measured: first-token-only SDC sits at or below
the unprotected all-steps rate for every fault model and approaches the
full-FT2 level, supporting the paper's argument that leaving the first
token range-unprotected is acceptable.""",
    ),
    (
        "Fig. 12 — large neuron values in generative LLMs",
        "Fig. 12 —",
        """Paper (Vicuna-7B): DOWN_PROJ carries a small population of large
activations while UP/GATE stay near their bulk. Measured: DOWN_PROJ and
the spike-carrying UP path show isolated values ~2x beyond their own p99
(heavy tails: a handful of legitimate large activations), while the wide
GATE distribution has no such excess (1.3x). These are exactly the values
clip-to-zero correction would destroy — the motivation for FT2's
clamp-to-bound choice.""",
    ),
    (
        "Fig. 13 — MAIN RESULT: the full evaluation grid",
        "Fig. 13 — aggregates",
        None,  # filled dynamically with the headline
    ),
    (
        "Fig. 14 — FT2 runtime and memory overhead",
        "Fig. 14 —",
        """Paper: 3.42% average runtime overhead (worst case 8.91% on OPT-2.7B);
288-512 B of bound storage. Measured: the A100 roofline model puts FT2's
fused clamp+nan pass at 2.4-7.7% of generation time with the worst cases
on the smallest models — the paper's exact picture (average ~3.7%, worst
on the small checkpoints). The simulator's wall-clock column is noisy
(millisecond-scale generations timed on one contended core; the steadier
measurement is the benchmark's `core.protect.overhead_pct`, with its
quartiles `_q1`/`_q3`, on the `solo_decode` workload — interleaved
protected/bare twins of 128-token generations; 4.2 % (2.1 / 6.0) on the
reference box when the benchmark landed). Bound memory is exactly 2 FP16 values per protected layer:
336-512 B, matching the paper's 288-512 B.""",
    ),
    (
        "Fig. 15 — data-type sensitivity (FP16 / FP32 / bf16)",
        "Fig. 15 —",
        """Paper: FT2 remains effective when the model runs in FP32 (SDC ~0.14%
after protection). Measured: the scheme ordering is preserved in all three
storage formats (bf16 is our extension beyond the paper), with FT2 at or
near the best rate in every row.""",
    ),
    (
        "Fig. 16 — hardware sensitivity (A100 vs H100)",
        "Fig. 16 —",
        """Paper: SDC rates are the same on both GPUs since FT2 is software-level.
Measured: identical by construction in the simulator (the timing model does
not influence arithmetic), shown with the roofline per-inference latencies
of both platforms for context.""",
    ),
    (
        "Ablations (beyond the paper)",
        "Ablation — correction policy",
        """Four ablations quantify design choices the paper calls out. (1)
Correction policy: under faults at simulator scale clip-to-zero can edge
out clamping — zeroing a corrupted propagation is cheap when hidden states
are only 64-dim — whereas the paper's Take-away #8 argument is about
*legitimate* outliers under tight bounds; the element-level behaviour
(clamp preserves a truncated outlier, zero destroys it) is pinned by unit
test `offline_bounds_shrink_with_clip_to_zero_on_outliers`. End to end the
fault-free ablation (`ablation_takeaway8_fault_free`) shows no difference
between the two policies — and shows both at 91.67 % fault-free
correctness, not 100 %: one prompt in twelve changes its answer under
protection with no fault injected, and the benchmark counts
`core.protect.false_clamps` in the thousands per `solo_decode` run. FT2 as
deployed here (scale 2, 12–20-token prompts) is not transparent on
fault-free runs; ROADMAP item 1 owns that gap. (2) Full Protection reaches the lowest
SDC, at the near-2x cost the paper cites. (3) Step weighting: a
computation-uniform fault model multiplies the first-token fault share
~12x and stresses FT2's unprotected prefill window — why the time-uniform
model (which soft-error physics implies) matters. (4) DMR, the paper's
limitations-section endpoint, reaches 0.00% SDC at 2.17x executions —
versus FT2's ~3% overhead (`ablation_dmr`).""",
    ),
]


def main() -> None:
    out = [PREAMBLE]
    for title, key, commentary in SECTIONS:
        out.append(f"\n## {title}\n")
        if key == "Fig. 13 — aggregates":
            out.append(table("Fig. 13 — aggregates"))
            out.append(
                f"""\n{headline()}

Paper: FT2 achieves an average 92.92% SDC-rate reduction, outperforming
every baseline; MaxiMals is the strongest baseline but fails on the
Llama-family models whose critical UP_PROJ it does not cover; rates rise
from 1-bit to 2-bit to EXP. Measured: the severity ordering
(EXP > 2-bit > 1-bit) and the scheme ordering reproduce, FT2 delivers the
lowest average SDC of all online-applicable schemes and is comparable to
FT2-offline (the paper's "first-token bounds are as good as offline
profiling" claim), but the absolute reduction saturates well below 92.92%
— the dilution scale artifact described in DESIGN.md section 2b sets a
residual floor of in-bound perturbations that no range restriction can
catch at 48-64 hidden dimensions. The per-cell grid is in
`results/fig13_main_grid.csv`.\n"""
            )
        else:
            out.append(table(key))
            out.append(f"\n{commentary}\n")
    out.append(
        """\n## Test and benchmark artifacts

`cargo test --workspace` runs every suite; `benchmark/run.sh` prints the
measured counterparts of the paper's cost figures — GEMM throughput
(`tensor.gemm.*`), the generation latency split (`model.prefill.*`,
`model.decode.*`), FT2's overhead (`core.protect.overhead_pct`,
`core.protect.profile_overhead_pct`) and campaign throughput (`trials_s`,
`fault.trial_us_*`). Neither output is committed: both are reproduced by
the one command.\n"""
    )
    sys.stdout.write("".join(out))


if __name__ == "__main__":
    main()
