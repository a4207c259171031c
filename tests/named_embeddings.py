"""Name-keyed embeddings, the form tests write posets in by hand.

An embedding written by name maps each atom of the lower context to the
names of the upper context's atoms it refines into.  ``encode`` turns such
embeddings into the per-atom index masks that ``ContextPoset`` takes, and
``embedding`` reads them back out of a poset, for any comparable pair.  For
bad names ``encode`` writes the two kinds of mask that the constructor
refuses as no embedding:

- a name the upper context lacks gets a bit above its atoms, the same bit
  for the same name;
- keys other than the lower context's atoms give an empty sequence, a
  wrong length.
"""


def encode(contexts, embeddings):
    """{(lower, upper): {atom: names}} -> {(lower, upper): per-atom masks}."""
    bits = {c: {x: 1 << s for s, x in enumerate(a.atoms)} for c, a in contexts.items()}
    images = {}
    for (a, b), emb in sorted(embeddings.items()):
        atoms = contexts[a].atoms
        if emb.keys() != set(atoms):
            images[a, b] = ()
            continue
        one = bits[b]  # grows past b's atoms
        images[a, b] = [sum(one.setdefault(y, 1 << len(one)) for y in set(emb[x])) for x in atoms]
    return images


def embedding(poset, a, b):
    """The embedding of a in b, for a <= b, as per-atom masks read
    through ``embed``, one atom at a time."""
    upper = poset.algebra(b).atoms
    return tuple(
        sum(1 << upper.index(y) for y in poset.embed(a, b, frozenset({x})))
        for x in poset.algebra(a).atoms
    )
