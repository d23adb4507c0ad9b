"""OWN001 fixture: slab writes outside the designated owner (everywhere)."""


def bad_direct(out_slab, arr, lo, hi):
    out_slab.fields["U"][lo:hi] = arr  # positive: foreign slab write


def bad_block(slab, arr, k, lo, hi):
    block = slab.aux.get(k)
    block[lo:hi] = arr  # positive: write through a tracked block view


def bad_augmented(state_slab, arr):
    state_slab.fields["W"][:] += arr  # positive: augmented foreign write


def _integrate_block(slab, arr, lo, hi):
    slab.fields["U"][lo:hi] = arr  # negative: the sanctioned member-block writer


def _transform_block(slab, w, lo, hi):
    slab.fields["W"][lo:hi] = w  # negative: the sanctioned row-block writer


def local_copy(slab, arr):
    private = {"U": arr.copy()}
    private["U"][0] = 0.0  # negative: heap-local dict, not a shared block
    return private


def tolerated(out_slab, arr, lo, hi):
    out_slab.fields["U"][lo:hi] = arr  # reprolint: ok OWN001 fixture demonstrates suppression
