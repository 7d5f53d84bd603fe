"""Kernel constants: socket types, signals, limits, scheduling.

Values follow 4.2BSD where the paper depends on them.
"""

from repro.net.addresses import AF_INET, AF_PAIR, AF_UNIX  # re-exported

# Socket types.
SOCK_STREAM = 1
SOCK_DGRAM = 2

# Signals (4.2BSD numbering).
SIGHUP = 1
SIGINT = 2
SIGKILL = 9
SIGPIPE = 13
SIGTERM = 15
SIGSTOP = 17
SIGCONT = 19
SIGCHLD = 20

# Kernel-level process states.
PROC_EMBRYO = "embryo"  # created, never yet run (suspended pre-exec)
PROC_RUNNABLE = "runnable"
PROC_RUNNING = "running"
PROC_SLEEPING = "sleeping"  # blocked in a syscall
PROC_STOPPED = "stopped"  # SIGSTOP'd
PROC_ZOMBIE = "zombie"  # terminated, not yet reaped

# Limits.
NOFILE = 64  # descriptors per process (generous vs the historical 20)
SOMAXCONN = 5  # default listen backlog cap
SOCK_BUFFER_BYTES = 4096  # per-direction stream buffer (flow control)
# A reader returns credit once it owes this much (4.2BSD's tcp_output:
# 35% of the buffer or two segments).  Less than the buffer, so a
# sender whose peer has read everything always holds credit.
WINDOW_UPDATE_BYTES = SOCK_BUFFER_BYTES // 4
DGRAM_QUEUE_BYTES = 8192  # receive queue budget for datagram sockets
MAX_DGRAM_BYTES = 2048  # largest single datagram

# Scheduling / accounting.
QUANTUM_MS = 10.0  # round-robin time slice
CPU_TICK_MS = 10.0  # granularity of procTime accounting (Section 4.1)
SYSCALL_COST_MS = 0.05  # CPU charged per syscall trap
METER_EVENT_COST_MS = 0.02  # extra CPU to build one meter record

# Ephemeral port range (Internet domain autobind).
EPHEMERAL_PORT_FIRST = 1024
EPHEMERAL_PORT_LAST = 5000

# Exit / termination reasons reported to the parent (Section 3.5.1:
# the meterdaemon reports "reason: normal" in Appendix B).
EXIT_NORMAL = "normal"
EXIT_SIGNALED = "signaled"
EXIT_ERROR = "error"
EXIT_CRASHED = "machinecrash"  # the whole machine went down (fault injection)
