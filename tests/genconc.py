"""Seeded generator for small two-thread programs with shared state.

Unlike genprog (which only has to parse), these programs must also run
under the detector, so every name resolves, loops always terminate in
every interleaving, and the shared-access count stays small enough for
exhaustive exploration.  Used to cross-check the detector against the
brute-force oracle and to fuzz the whole fix pipeline.

With ``read_run=True`` a program also has a global ``R`` that the worker
and main each read, unordered, before main writes it after the join: a
write after two reads that can run in either order.

With ``private=True`` a program has three threads.  The worker creates
and joins a nested worker, and each of the two has a global of its own,
``P`` and ``Q``, that no other thread can touch.  Each runs one statement
on it, which may also read or write a shared global, branch, or divide by
a shared global that can be zero; the nested worker then writes a shared
global.  To keep exhaustive search small, main runs one statement with no
loop or branch, and the worker nothing else.

With ``chain=True`` the worker ends with an else-if chain, in place of
its random statements: the head and the link each test a shared global,
and each arm bumps ``C``, a global only the worker touches.  The head
can hold in a schedule where the link's read races, and ``C`` ends at 1
at most, so a patch that lets the link run after the head has held
shows as a final state the program never had.

The options add to the programs; without them every seed gives the
program it always gave.
"""

import random

_GLOBALS = ["G", "H", "K"]


class ConcurrentProgramGenerator:
    def __init__(self, seed: int, read_run: bool = False, private: bool = False,
                 chain: bool = False):
        self.rng = random.Random(seed)
        self.globals = self.rng.sample(_GLOBALS, self.rng.randint(1, 3))
        self.use_mutex = self.rng.random() < 0.35
        self.read_run = read_run
        # sources of their own for the private parts and the chain
        self.private = random.Random(-1 - seed) if private else None
        self.chain = random.Random(f"chain{seed}") if chain else None

    def _value(self) -> str:
        rng = self.rng
        if rng.random() < 0.6:
            return str(rng.randint(0, 3))
        name = rng.choice(self.globals)
        if rng.random() < 0.4:
            return f"{name} + {rng.randint(1, 2)}"
        return name

    def _assign(self, indent: str) -> str:
        if self.rng.random() < 0.15:
            return f"{indent}{self.rng.choice(self.globals)} += {self.rng.randint(1, 2)};\n"
        return f"{indent}{self.rng.choice(self.globals)} = {self._value()};\n"

    def _read_r(self, indent: str) -> str:
        return f"{indent}{self.rng.choice(self.globals)} = R;\n"

    def _own(self, name: str) -> str:
        """A statement on the global `name` of one thread."""
        rng = self.private
        shared = rng.choice(self.globals)
        return rng.choice([
            f"    {name} = {name} + {rng.randint(1, 2)};\n",
            f"    {name} = {shared};\n",
            f"    {shared} = {name} + 1;\n",
            f"    if ({name} == 0) {{\n        {name} = {rng.randint(1, 2)};\n    }}\n",
            f"    {name} = 2 / {shared};\n",
        ])

    def _chain(self) -> str:
        rng = self.chain
        head, link = (f"{rng.choice(self.globals)} {rng.choice(['==', '!=', '<', '>'])} "
                      f"{rng.randint(0, 2)}" for _ in range(2))
        return (f"    if ({head}) {{\n        C = C + 1;\n"
                f"    }} else if ({link}) {{\n        C = C + 1;\n    }}\n")

    def _statement(self, indent: str, depth: int, budget: list) -> str:
        rng = self.rng
        budget[0] -= 1
        roll = rng.random()
        if depth == 0 and roll < 0.18 and budget[0] > 1:
            # counting loop: strictly decreasing, so it terminates no
            # matter how the other thread interleaves
            var = rng.choice(self.globals)
            return (
                f"{indent}while ({var} > 0) {{\n"
                f"{indent}    {var} = {var} - 1;\n"
                f"{indent}}}\n"
            )
        if depth == 0 and roll < 0.45 and budget[0] > 1:
            var = rng.choice(self.globals)
            cmp = rng.choice(["==", "!=", "<", ">"])
            body = self._assign(indent + "    ")
            stmt = f"{indent}if ({var} {cmp} {rng.randint(0, 2)}) {{\n{body}{indent}}}"
            if rng.random() < 0.4:
                stmt += f" else {{\n{self._assign(indent + '    ')}{indent}}}"
            return stmt + "\n"
        if self.use_mutex and roll < 0.75:
            # existing user-locked section; the detector must honor the
            # release-acquire ordering it induces
            return (
                f"{indent}pthread_mutex_lock(&m);\n"
                + self._assign(indent)
                + f"{indent}pthread_mutex_unlock(&m);\n"
            )
        return self._assign(indent)

    def program(self) -> str:
        rng = self.rng
        parts = []
        for name in self.globals:
            init = f" = {rng.randint(0, 2)}" if rng.random() < 0.5 else ""
            parts.append(f"int {name}{init};\n")
        if self.read_run:
            parts.append("int R;\n")
        if self.private:
            parts.append("int P;\nint Q;\n")
        if self.chain:
            parts.append("int C;\n")
        if self.use_mutex:
            parts.append("pthread_mutex_t m = PTHREAD_MUTEX_INITIALIZER;\n")
        parts.append("\n")

        if self.private:
            own = self.private
            parts.append("void *Nested(void *arg) {\n" + self._own("Q")
                         + f"    {own.choice(self.globals)} = {own.randint(0, 3)};\n"
                         + "    return 0;\n}\n\n")
            worker = [self._read_r("    ")] if self.read_run else []
            worker.insert(own.randint(0, len(worker)), self._own("P"))
            worker.insert(own.randint(0, len(worker)), "    pthread_create(&u, 0, Nested, 0);\n")
        else:
            budget = [0 if self.chain else rng.randint(1, 3)]
            worker = [self._read_r("    ")] if self.read_run else []
            while budget[0] > 0:
                worker.append(self._statement("    ", 0, budget))
        if self.chain:
            worker.append(self._chain())
        if self.private:
            worker = ["    pthread_t u;\n", *worker, "    pthread_join(u, 0);\n"]
        parts.append("void *Worker(void *arg) {\n")
        parts.extend(worker)
        parts.append("    return 0;\n}\n\n")

        depth = 1 if self.private else 0  # 1: no loop or branch
        budget = [1] if self.private else [rng.randint(1, 2)]
        main_work = []
        while budget[0] > 0:
            main_work.append(self._statement("    ", depth, budget))
        parts.append("int main() {\n    pthread_t t;\n")
        if rng.random() < 0.4:
            parts.append(self._assign("    "))
        parts.append("    pthread_create(&t, 0, Worker, 0);\n")
        if self.read_run:
            parts.append(self._read_r("    "))
        parts.extend(main_work)
        parts.append("    pthread_join(t, 0);\n")
        if self.read_run:
            parts.append("    R = 1;\n")
        ret = rng.choice(self.globals) if rng.random() < 0.6 else "0"
        parts.append(f"    return {ret};\n}}\n")
        return "".join(parts)


def generate_concurrent(seed: int, read_run: bool = False, private: bool = False,
                        chain: bool = False) -> str:
    return ConcurrentProgramGenerator(seed, read_run, private, chain).program()
