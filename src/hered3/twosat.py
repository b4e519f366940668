"""2-SAT over an implication graph, solved with an iterative Tarjan SCC pass.

Literal encoding: variable v in 0..n-1 has positive literal 2v and negative
literal 2v+1; `lit ^ 1` negates.
"""

from __future__ import annotations


def lit(var: int, positive: bool) -> int:
    return 2 * var + (0 if positive else 1)


class TwoSat:
    def __init__(self, num_vars: int) -> None:
        self.num_vars = num_vars
        self._adj: list[list[int]] = [[] for _ in range(2 * num_vars)]
        self._clauses: list[tuple[int, int]] = []

    def add_clause(self, a: int, b: int) -> None:
        """Require (a OR b); a and b are encoded literals."""
        n = 2 * self.num_vars
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"literal out of range: {a}, {b}")
        self._clauses.append((a, b))
        self._adj[a ^ 1].append(b)
        self._adj[b ^ 1].append(a)

    def solve(self) -> dict | None:
        """A satisfying assignment var -> bool, or None.

        The assignment is verified against every clause before returning;
        the verdict is independent of clause insertion order.
        """
        comp = self._scc()
        model: dict[int, bool] = {}
        for v in range(self.num_vars):
            pos, neg = comp[2 * v], comp[2 * v + 1]
            if pos == neg:
                return None
            # components are numbered in completion order, which is reverse
            # topological: the side finished first lies downstream
            model[v] = pos < neg
        for a, b in self._clauses:
            if not (self._holds(model, a) or self._holds(model, b)):
                raise AssertionError("2-SAT model fails a clause")
        return model

    @staticmethod
    def _holds(model: dict, literal: int) -> bool:
        value = model[literal // 2]
        return value if literal % 2 == 0 else not value

    def _scc(self) -> list[int]:
        n = 2 * self.num_vars
        index = [-1] * n
        low = [0] * n
        comp = [-1] * n
        on_stack = [False] * n
        stack: list[int] = []
        counter = 0
        ncomps = 0
        for root in range(n):
            if index[root] != -1:
                continue
            work = [(root, 0)]
            while work:
                node, ptr = work[-1]
                if ptr == 0:
                    index[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack[node] = True
                advanced = False
                for k in range(ptr, len(self._adj[node])):
                    nxt = self._adj[node][k]
                    if index[nxt] == -1:
                        work[-1] = (node, k + 1)
                        work.append((nxt, 0))
                        advanced = True
                        break
                    if on_stack[nxt]:
                        low[node] = min(low[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if low[node] == index[node]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = ncomps
                        if w == node:
                            break
                    ncomps += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return comp
