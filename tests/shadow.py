"""Restoration oracle.  A test swaps the backends of its solves for
``ShadowBackend``s by patching ``fdlab.search.make_backend`` through
:func:`shadow_backends`, as ``test_oracle`` hooks ``_Search.root``.  This
module holds no tests; test modules import it by name."""

import fdlab.search


class ShadowBackend:
    """Runs a primary backend, snapshots the store at every node it opens
    and counts the backtracks after which the store differs from that
    snapshot.  The masks, their cached bounds and the Boolean cells must
    be identical; the pid states must start with the snapshot's, and every
    pid that joined after it must be idle."""

    def __init__(self, primary):
        self.primary = primary
        self.expected = []  # one snapshot per open frame
        self.mismatches = 0

    @property
    def stats(self):
        return self.primary.stats

    def open_node(self, actions):
        self.expected.append(self.primary.store.snapshot_blob())
        self.primary.open_node(actions)

    def backtrack_to(self, target):
        expected = self.expected[target]
        del self.expected[target:]
        self.primary.backtrack_to(target)
        got = self.primary.store.snapshot_blob()
        states, n = got[4], len(expected[4])
        if got[:4] != expected[:4] or states[:n] != expected[4] or any(states[n:]):
            self.mismatches += 1


def shadow_backends(mp, wrap=ShadowBackend):
    """Patch, through the ``MonkeyPatch`` ``mp``, every backend a solve
    builds into ``wrap(backend)``.  Returns the list that collects the
    wrapped backends, one per solve, in order."""
    made = []
    make = fdlab.search.make_backend

    def wrapped(mode, store, replay):
        made.append(wrap(make(mode, store, replay)))
        return made[-1]

    mp.setattr(fdlab.search, "make_backend", wrapped)
    return made
