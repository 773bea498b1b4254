"""The one owner of semidual's caches.

Every relative-Ext, Foxby and class-membership check reuses the same Hom
spaces, presentations, resolutions and natural maps, so the library keeps
them.  Each cache is a dict registered here: cache() returns a new
registered dict, memo memoises a function in one, and clear_caches()
empties every one of them.

A memoised function takes modules or rings and is keyed by their
fingerprints: the bare fingerprint for one argument, a tuple of them for
several.  Equal fingerprints mean equal structure, so a relabelled copy of
a module hits the entry of the original and gets back the object built for
it.  The dict behind a memoised function is its `store` attribute.

Lookups with a rule of their own (a best bound, resolutions and lists of
differential ranks extended in place) use a cache() dict directly.
"""

from __future__ import annotations

import functools
import inspect

_caches: list[dict] = []


def cache() -> dict:
    """A new empty dict that clear_caches() empties."""
    d: dict = {}
    _caches.append(d)
    return d


def clear_caches() -> None:
    for d in _caches:
        d.clear()


def memo(fn):
    """Memoise fn, a function (or class) of modules or rings, by the
    fingerprints of its positional arguments.  The one- and two-argument
    keys are built inline, without a generator, so a hit costs what a
    hand-written dict lookup does."""
    store = cache()
    arity = len(inspect.signature(fn).parameters)
    if arity == 1:
        def lookup(a):
            got = store.get(a.fingerprint)
            if got is None:
                got = store[a.fingerprint] = fn(a)
            return got
    elif arity == 2:
        def lookup(a, b):
            key = (a.fingerprint, b.fingerprint)
            got = store.get(key)
            if got is None:
                got = store[key] = fn(a, b)
            return got
    else:
        def lookup(*args):
            key = tuple([a.fingerprint for a in args])
            got = store.get(key)
            if got is None:
                got = store[key] = fn(*args)
            return got
    functools.update_wrapper(lookup, fn, updated=())
    lookup.store = store
    return lookup
