"""The system open-file table.

Descriptor tables map small integers to shared file-table entries, as
in 4.2BSD: ``dup()`` and ``fork()`` share entries (and hence offsets),
and an entry's object is released when its reference count drops to
zero ("A socket disappears when it is no longer referenced by any
process", Section 3.1).

Each entry has a machine-unique integer ``addr`` standing in for the C
implementation's file-table-entry address; Section 4.1: "Sockets are
identified by their address within the system descriptor table.  This
ensures that socket addresses are unique within a particular machine."
Meter messages carry this value in their ``sock`` fields.
"""

import itertools


class FileTableEntry:
    """One open file or socket, shared by any number of descriptors."""

    __slots__ = ("addr", "obj", "kind", "refcount")

    def __init__(self, addr, obj):
        self.addr = addr
        self.obj = obj  # Socket, OpenFile, or a tty device; never replaced
        self.kind = obj.kind
        self.refcount = 0

    def __repr__(self):
        return "FileTableEntry(addr={0}, kind={1}, refs={2})".format(
            self.addr, self.kind, self.refcount
        )


class FileTable:
    """Per-machine table of open objects."""

    def __init__(self):
        self._addr_counter = itertools.count(0x1000, 0x10)
        self.entries = {}

    def allocate(self, obj):
        """Wrap ``obj`` in a new entry with refcount 0."""
        entry = FileTableEntry(next(self._addr_counter), obj)
        self.entries[entry.addr] = entry
        return entry

    def ref(self, entry):
        entry.refcount += 1
        return entry

    def unref(self, entry):
        """Drop a reference; closes the object at zero.  Returns True
        if the object was released."""
        entry.refcount -= 1
        if entry.refcount > 0:
            return False
        self.entries.pop(entry.addr, None)
        entry.obj.close()
        return True

    def live_count(self):
        return len(self.entries)
