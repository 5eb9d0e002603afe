import numpy as np

from deltatree import star_tree, attach_vertex


def random_tree(rng, p, positive=False, n_choices=(2, 3, 4),
                alpha_range=(-3.0, 3.0), length_range=(0.3, 3.0),
                zero_fraction=0.0):
    """Random tree with p vertices grown by grafting on random external
    edges; strengths avoid zero (or are strictly positive), except that
    each is 0 with probability ``zero_fraction``."""
    def strength():
        if zero_fraction and rng.uniform() < zero_fraction:
            return 0.0
        if positive:
            return float(rng.uniform(0.2, alpha_range[1]))
        while True:
            a = float(rng.uniform(*alpha_range))
            if abs(a) > 0.1:
                return a

    tree = star_tree(int(rng.choice(n_choices)), strength())
    for _ in range(p - 1):
        ext = [e.id for e in tree.external_edges]
        eid = ext[int(rng.integers(len(ext)))]
        a = float(rng.uniform(*length_range))
        tree = attach_vertex(tree, eid, a, strength(),
                             int(rng.choice(n_choices)))
    return tree


def random_omega(rng, re_range=(0.0, 2.0), im_range=(-10.0, 10.0)):
    return complex(rng.uniform(*re_range), rng.uniform(*im_range))
