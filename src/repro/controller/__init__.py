"""The control process (Sections 3.5 and 4).

A command interpreter providing "a concise menu of commands to use in
the measurement and control of one or more distributed computations":
help, filter, newjob, addprocess, acquire, setflags, startjob, stopjob,
removejob, removeprocess, jobs, getlog, source, sink, die -- the
paper's fifteen.  This repo adds five: input, stdinfile (Section
3.5.2's I/O paths as commands), stats, watch (live analysis) and
resume (recovery from a controller crash).
"""

from repro.controller.control import PROMPT, controller
from repro.controller.states import (
    ACQUIRED,
    KILLED,
    NEW,
    RUNNING,
    STOPPED,
    can_transition,
)

__all__ = [
    "PROMPT",
    "controller",
    "ACQUIRED",
    "KILLED",
    "NEW",
    "RUNNING",
    "STOPPED",
    "can_transition",
]
