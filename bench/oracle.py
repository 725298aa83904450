"""Clock-free happens-before oracle over recorded execution traces.

For each trace (one total order of shared events) it builds the
happens-before relation explicitly: program-order edges, release-acquire
edges between every unlock and each later lock of the same mutex,
creation edges into the child's events, and join edges out of the
child's last event.  Reachability over that DAG decides ordering; a
conflicting access pair unreachable in both directions is a race.

This is the slow, direct alternative to the vector clocks used by the
detector: same semantics, no timestamps.
"""

from collections import defaultdict


def trace_races(trace) -> set:
    """Races in one trace: {(variable, (coord_a, coord_b)) ...} sorted pairs."""
    n = len(trace)
    succ = [set() for _ in range(n)]

    last_of_thread: dict = {}
    first_of_thread: dict = {}
    unlocks_by_mutex = defaultdict(list)
    for i, event in enumerate(trace):
        kind, tid = event[0], event[1]
        if tid in last_of_thread:
            succ[last_of_thread[tid]].add(i)
        last_of_thread[tid] = i
        first_of_thread.setdefault(tid, i)
        if kind == "unlock":
            unlocks_by_mutex[event[2]].append(i)
        elif kind == "lock":
            for j in unlocks_by_mutex[event[2]]:
                succ[j].add(i)
        elif kind == "create":
            child = event[2]
            # the child's events all come later in the trace; hook the
            # create event to the child's first event once known
            for k in range(i + 1, n):
                if trace[k][1] == child:
                    succ[i].add(k)
                    break
        elif kind == "join":
            target = event[2]
            last = None
            for k in range(i):
                if trace[k][1] == target:
                    last = k
            if last is not None:
                succ[last].add(i)

    # transitive closure by forward DFS (traces are tiny)
    reach = [set() for _ in range(n)]
    for start in range(n - 1, -1, -1):
        seen = set()
        stack = list(succ[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(succ[node])
        reach[start] = seen

    races = set()
    accesses = [
        (i, e) for i, e in enumerate(trace) if e[0] in ("read", "write")
    ]
    for ai in range(len(accesses)):
        i, a = accesses[ai]
        for bi in range(ai + 1, len(accesses)):
            j, b = accesses[bi]
            if a[1] == b[1] or a[2] != b[2]:
                continue  # same thread or different variable
            if a[0] == "read" and b[0] == "read":
                continue
            if j in reach[i] or i in reach[j]:
                continue
            pair = tuple(sorted([a[3], b[3]]))
            races.add((a[2], pair))
    return races


def all_races(traces) -> set:
    """Union of per-trace races over a full exploration."""
    races = set()
    for trace in traces:
        races |= trace_races(trace)
    return races
