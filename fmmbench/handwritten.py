"""Hand-written one-level Strassen: the reference ``fmm`` is measured against.

Plain numpy over block views: three half-size buffers (``S``, ``T``,
``M``), every product written with ``out=`` and added into ``C`` in place.
Odd dimensions peel: the even core runs Strassen and the leftover row,
column and inner slice are classical updates.
"""

from __future__ import annotations

import numpy as np


def strassen_1level(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B`` by one level of Strassen's algorithm (``C`` is returned)."""
    m, k = A.shape
    n = B.shape[1]
    h, kh, nh = m // 2, k // 2, n // 2
    C = np.zeros((m, n), dtype=np.result_type(A, B))
    A11, A12, A21, A22 = A[:h, :kh], A[:h, kh:2 * kh], A[h:2 * h, :kh], A[h:2 * h, kh:2 * kh]
    B11, B12, B21, B22 = B[:kh, :nh], B[:kh, nh:2 * nh], B[kh:2 * kh, :nh], B[kh:2 * kh, nh:2 * nh]
    C11, C12, C21, C22 = C[:h, :nh], C[:h, nh:2 * nh], C[h:2 * h, :nh], C[h:2 * h, nh:2 * nh]
    S = np.empty((h, kh), C.dtype)
    T = np.empty((kh, nh), C.dtype)
    M = np.empty((h, nh), C.dtype)

    np.add(A11, A22, out=S)
    np.add(B11, B22, out=T)
    np.matmul(S, T, out=M)          # M1
    C11 += M
    C22 += M
    np.add(A21, A22, out=S)
    np.matmul(S, B11, out=M)        # M2
    C21 += M
    C22 -= M
    np.subtract(B12, B22, out=T)
    np.matmul(A11, T, out=M)        # M3
    C12 += M
    C22 += M
    np.subtract(B21, B11, out=T)
    np.matmul(A22, T, out=M)        # M4
    C11 += M
    C21 += M
    np.add(A11, A12, out=S)
    np.matmul(S, B22, out=M)        # M5
    C11 -= M
    C12 += M
    np.subtract(A21, A11, out=S)
    np.add(B11, B12, out=T)
    np.matmul(S, T, out=M)          # M6
    C22 += M
    np.subtract(A12, A22, out=S)
    np.add(B21, B22, out=T)
    np.matmul(S, T, out=M)          # M7
    C11 += M

    if k % 2:
        C[:2 * h, :2 * nh] += A[:2 * h, 2 * kh:] @ B[2 * kh:, :2 * nh]
    if m % 2:
        C[2 * h:, :2 * nh] += A[2 * h:] @ B[:, :2 * nh]
    if n % 2:
        C[:, 2 * nh:] += A @ B[:, 2 * nh:]
    return C
