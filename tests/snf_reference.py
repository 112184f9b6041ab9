"""The Smith normal form with its transforms: U, D, V and V^-1 with
U A V = D.  polyco computes only the invariant factors; the tests check
those against this reference's nonzero diagonal, and check the reference
itself against its transforms."""

Matrix = list[list[int]]


def zeros(n: int, m: int) -> Matrix:
    return [[0] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    oi[j] += x * bt[j]
    return out


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """U, D, V, Vinv with U*A*V = D, U and V unimodular, D diagonal with
    each invariant factor dividing the next."""
    n = len(a)
    m = len(a[0]) if a else 0
    d = [row[:] for row in a]
    u = identity(n)
    v = identity(m)
    vinv = identity(m)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        for t in range(m):
            d[i][t] += q * d[j][t]
        for t in range(n):
            u[i][t] += q * u[j][t]

    def add_col(i, j, q):
        # col_i += q * col_j ; Vinv gets the inverse row operation
        for row in d:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]
        for t in range(m):
            vinv[j][t] -= q * vinv[i][t]

    def negate_row(i):
        for t in range(m):
            d[i][t] = -d[i][t]
        for t in range(n):
            u[i][t] = -u[i][t]

    size = min(n, m)
    t = 0
    while t < size:
        pi = pj = -1
        best = None
        for i in range(t, n):
            for j in range(t, m):
                x = abs(d[i][j])
                if x and (best is None or x < best):
                    best, pi, pj = x, i, j
        if best is None:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            restart = False
            for i in range(t + 1, n):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t]:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, m):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # the pivot must divide the rest of the submatrix
            found = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if d[i][j] % d[t][t]:
                        found = i
                        break
                if found is not None:
                    break
            if found is None:
                break
            add_row(t, found, 1)
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return u, d, v, vinv


def diagonal(d: Matrix) -> list[int]:
    """The nonzero entries of a Smith normal form's diagonal, in order."""
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))
            if d[i][i]]
