"""Seeded generator for small two-thread programs with shared state.

Unlike genprog (which only has to parse), these programs must also run
under the detector, so every name resolves, loops always terminate in
every interleaving, and the shared-access count stays small enough for
exhaustive exploration.  Used to cross-check the detector against the
brute-force oracle and to fuzz the whole fix pipeline.

With ``read_run=True`` a program also has a global ``R`` that the worker
and main each read, unordered, before main writes it after the join: a
write after two reads that can run in either order.  The option adds to
the programs; without it every seed gives the program it always gave.
"""

import random

_GLOBALS = ["G", "H", "K"]


class ConcurrentProgramGenerator:
    def __init__(self, seed: int, read_run: bool = False):
        self.rng = random.Random(seed)
        self.globals = self.rng.sample(_GLOBALS, self.rng.randint(1, 3))
        self.use_mutex = self.rng.random() < 0.35
        self.read_run = read_run

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
        if self.use_mutex:
            parts.append("pthread_mutex_t m = PTHREAD_MUTEX_INITIALIZER;\n")
        parts.append("\n")

        budget = [rng.randint(1, 3)]
        worker = [self._read_r("    ")] if self.read_run else []
        while budget[0] > 0:
            worker.append(self._statement("    ", 0, budget))
        parts.append("void *Worker(void *arg) {\n")
        parts.extend(worker)
        parts.append("    return 0;\n}\n\n")

        budget = [rng.randint(1, 2)]
        main_work = []
        while budget[0] > 0:
            main_work.append(self._statement("    ", 0, budget))
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


def generate_concurrent(seed: int, read_run: bool = False) -> str:
    return ConcurrentProgramGenerator(seed, read_run).program()
