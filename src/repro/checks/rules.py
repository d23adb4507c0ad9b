"""Rule registry for ``reprolint``.

Each rule encodes one of the numerical-discipline contracts the
reproduction inherits from the paper's production system (single
precision LETKF, bit-reproducible cycling, fail-safe restarts that must
resume bit-identically):

========  ==========================================================
DET001    unseeded / global RNG (breaks seed-determinism)
DET002    wall-clock reads outside the telemetry/workflow layers
DTY001    dtype discipline in the single-precision hot paths
MUT001    in-place mutation of function parameters in kernel modules
ROL001    ``np.roll`` in the model's periodic stencil paths
LAY001    layout-floating GEMM/einsum operands near ``letkf_transform``
ASY001    blocking call inside ``async def`` (stalls the event loop)
ASY002    un-awaited coroutine / fire-and-forget task without a handle
SHM001    shared-memory segment that provably never reaches close/unlink
RES001    pool/executor/server constructed without a close on exit paths
OWN001    slab/arena block write outside the designated owner
========  ==========================================================

Findings are suppressed inline with ``# reprolint: ok <CODE> <reason>``
on the offending statement (first or last line) or the line above it;
give the reason — it is the documentation of the contract exception.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Rule", "RULES", "rule"]


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable code, summary, and a fix-it hint."""

    code: str
    name: str
    summary: str
    hint: str


RULES: dict[str, Rule] = {
    r.code: r
    for r in (
        Rule(
            code="DET001",
            name="unseeded-rng",
            summary="unseeded or global random number generator",
            hint=(
                "pass an explicit seed (np.random.default_rng(seed)); thread "
                "seeds from the caller instead of drawing from global state"
            ),
        ),
        Rule(
            code="DET002",
            name="wall-clock",
            summary="wall-clock read outside telemetry/ or workflow/",
            hint=(
                "numerics must not depend on wall time; take timestamps in the "
                "telemetry or workflow layer and pass them in as data"
            ),
        ),
        Rule(
            code="DTY001",
            name="dtype-discipline",
            summary="float64 or default-dtype array construction in a "
            "single-precision hot path",
            hint=(
                "pin dtype= to the configured precision (config.numpy_dtype() "
                "or an existing array's .dtype); annotate deliberate float64 "
                "accumulation with '# reprolint: ok DTY001 <reason>'"
            ),
        ),
        Rule(
            code="MUT001",
            name="parameter-mutation",
            summary="in-place mutation of a function parameter in a kernel "
            "module",
            hint=(
                "kernels must not write into caller-owned arrays: operate on "
                "a copy, return a new array, or rename the parameter 'out' / "
                "'*_out' if writing into it is the documented contract"
            ),
        ),
        Rule(
            code="ROL001",
            name="roll-in-stencil",
            summary="np.roll in a model stencil path (model/, grid.py)",
            hint=(
                "use grid.periodic_shift(a, shift, axis): the same values "
                "from one allocation and two slice copies, without "
                "np.roll's per-call axis normalisation"
            ),
        ),
        Rule(
            code="LAY001",
            name="layout-floating-operand",
            summary="transposed view fed to a GEMM/einsum without a pinned "
            "memory layout",
            hint=(
                "BLAS picks its partial-sum grouping from operand strides, so "
                "a layout-floating view breaks bit-reproducibility between "
                "code paths; pin with np.ascontiguousarray(...) or annotate "
                "the documented layout contract"
            ),
        ),
        Rule(
            code="ASY001",
            name="blocking-call-in-async",
            summary="blocking call inside an async def stalls the event loop",
            hint=(
                "the 30-second cycle cannot absorb a stalled loop: await "
                "asyncio.sleep(...) instead of time.sleep, wrap sync I/O and "
                "heavy numpy work in 'await asyncio.to_thread(...)', or move "
                "the blocking work out of the coroutine entirely"
            ),
        ),
        Rule(
            code="ASY002",
            name="unawaited-coroutine",
            summary="un-awaited coroutine or fire-and-forget create_task "
            "without a retained handle",
            hint=(
                "a bare coroutine call never runs and a task without a "
                "retained reference can be garbage-collected mid-flight: "
                "'await' the coroutine, or keep the create_task handle "
                "(task = loop.create_task(...)) and await/cancel it on "
                "shutdown"
            ),
        ),
        Rule(
            code="SHM001",
            name="shm-lifecycle",
            summary="SharedMemory handle that provably never reaches "
            "close()/unlink() or an ownership registry",
            hint=(
                "every SharedMemory(create=True) must end in unlink() and "
                "every attach in close(), or the segment outlives the "
                "process in /dev/shm; route ownership through "
                "repro.model.shm (SharedStateSlab / SharedArena are context "
                "managers) or close in a try/finally"
            ),
        ),
        Rule(
            code="RES001",
            name="resource-lifecycle",
            summary="pool/executor/server constructed without close() or a "
            "context manager on every exit path",
            hint=(
                "backends, servers, and assemblers hold processes, sockets, "
                "or shared segments: prefer 'with make_backend(...) as b:' / "
                "'async with'/'await server.aclose()' in a finally, or hand "
                "the object to an owner that closes it"
            ),
        ),
        Rule(
            code="OWN001",
            name="foreign-slab-write",
            summary="write to a shared slab/arena block outside the "
            "designated owner",
            hint=(
                "shared-memory blocks have exactly one writer per handoff, "
                "the pool's block function for the op (_integrate_block, "
                "_transform_block), in the worker or, for a dead worker's "
                "block, in the parent under hoff.reclaim: move the write "
                "into the block function"
            ),
        ),
    )
}


def rule(code: str) -> Rule:
    """Look up a rule by code (KeyError on unknown codes)."""
    return RULES[code]
