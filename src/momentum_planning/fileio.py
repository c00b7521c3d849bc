"""The one writer of output files.

Every file the toolkit writes (a scenario log, a metrics CSV, a samples
file, a scene manifest, a weights file, the turning suite's CSV) goes
through ``write_in_place``.  The caller formats the whole text first,
so a value that fails to format leaves no new file behind and an
existing one as it was.
"""

from __future__ import annotations

import os
import stat


def write_in_place(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, overwriting an existing file in
    place: its inode, mode and links stay, and a symlink's target is
    written.  The length is set to the new size first, not cut to zero:
    on ext4 a file cut to zero is flushed at close, so a rerun into the
    same directory skips that flush; a new file costs what it did.

    A process killed between the two calls leaves the old bytes cut or
    NUL-padded to the new length, never new lines followed by old ones.
    Nothing is fsynced and nothing is flushed at close: after a system
    crash the file can hold the old bytes whole, or a mix of old and new
    pages, where the flush at close of a file cut to zero would most
    likely have written the new ones."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        if stat.S_ISREG(os.fstat(fd).st_mode):  # a device or a pipe has no length to set
            os.ftruncate(fd, len(data))
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)
