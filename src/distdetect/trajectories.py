"""The text of `trajectories.csv`: each float as '%.17g' % x writes it. Only `simulate` loads it."""

import numpy as np


CSV_HEADER = b"trial,t,agent,tv_error,log_tv_error,kl_increment,centralized_tv_error\r\n"
CSV_CHUNK = 8192  # rows formatted at a time, which bounds the text held in memory

# `_format17`'s lookup tables. By j = 308 - e10 for each decimal exponent e10
# of a finite nonzero double: c = floor(10^k 2^-b) in [2^63, 2^64) for
# k = 16 - e10, 53 - b, the text before the first digit and after the last, and
# the digits before the point. By four digits: their text and trailing zeros.
# By word i of bytes 8-23 and n in [0, 17]: its bytes before byte 8 + n. The
# text of 0, inf and nan.
_E = range(308, -325, -1)
_P = [10 ** abs(16 - e) for e in _E]
_B = [p.bit_length() - 64 if e <= 16 else -63 - p.bit_length() for e, p in zip(_E, _P)]
_C = np.array([p << 64 >> 64 + b if e <= 16 else (1 << -b) // p
               for e, p, b in zip(_E, _P, _B)], np.uint64)
_SB = 53 - np.array(_B)
_PRE = np.array([int.from_bytes(b"0." + b"0" * (-e - 1), "little") << 8 if -4 <= e < 0 else 0
                 for e in _E], np.uint64)
_SUF = np.array([0 if -4 <= e < 17 else int.from_bytes(b"e%+03d" % e, "little") << 8
                 for e in _E], np.uint64)
_WIDTH = np.array([max(e + 1, 0) if -4 <= e < 17 else 1 for e in _E])
_I = np.arange(10000)
_QUAD = sum((_I // 10**t % 10 + 48) << 24 - 8 * t for t in range(4)).astype(np.uint64)
_ZEROS = sum(_I % 10**t == 0 for t in range(1, 5))
_BELOW = np.array([[(1 << 8 * min(max(n - 8 * i, 0), 8)) - 1 for n in range(18)]
                   for i in (0, 1)], np.uint64)
_SPECIAL = np.array([int.from_bytes(t, "little")
                     for t in (b"0", b"-0", b"inf", b"-inf", b"nan", b"nan")], np.uint64)


def _round17(a):
    """(D, j, certain) for finite a > 0: D = round(a 10^k), 17 digits, j = 308 - e10.

    With a = m 2^(q-53), e10 = floor(log10 a), k = 16 - e10 and c = floor(10^k 2^-b),
    a 10^k 2^s lies in [P, P + m) for P = m c and s = 53 - q - b, since c is
    below 10^k 2^-b by less than 1. With P = D' 2^s + r, D is D' if
    r + m <= 2^(s-1) and D' + 1 if r > 2^(s-1). It is not certain in between
    (exact ties among them), for D' outside [10^16, 10^17) (log10 off by one at
    a power of ten) or for s outside [53, 63]. No double lies close enough below
    a power of ten for D' + 1 to reach 10^17.
    """
    frac, q = np.frexp(a)
    m = (frac * 2.0**53).astype(np.uint64)
    j = 308 - np.floor(np.log10(a)).astype(np.intp)
    c, s = _C[j], _SB[j] - q
    certain = (s >= 53) & (s <= 63)
    s = np.clip(s, 53, 63).astype(np.uint64)
    lo32 = np.uint64(0xFFFFFFFF)  # P = hi 2^64 + lo from the 32-bit halves of m and c
    mid = (m & lo32) * (c >> 32) + ((m & lo32) * (c & lo32) >> 32)
    hi = (m >> 32) * (c >> 32) + (mid >> 32) + ((m >> 32) * (c & lo32) + (mid & lo32) >> 32)
    lo = m * c  # modulo 2^64
    d, r, half = (hi << 64 - s) | (lo >> s), lo & (1 << s) - 1, 1 << s - 1
    up = r > half
    certain &= (up | (r + m <= half)) & (d >= 10**16) & (d < 10**17)
    return (d + up).astype(np.int64), j, certain


def _format17(x, sep):
    """The text of '%.17g' % v and then `sep` for each v of the float array x.

    Returns (len(x), 4) uint64 words: 32 little-endian bytes per value, NUL
    where no character goes: the sign, then bytes 1-6 the text before the first
    digit, 7-23 the digits with trailing zeros blanked and the point inserted
    (which moves the rest one byte on), 25-29 the exponent and 30-31 `sep`.
    Python formats the values whose digits `_round17` leaves uncertain.
    """
    sep = int.from_bytes(sep, "little") << 48
    out = np.zeros((4, len(x)), np.uint64)
    out[3] = sep
    odd = ~np.isfinite(x) | (x == 0)
    y = x[odd]
    out[0, odd] = _SPECIAL[np.signbit(y) + 2 * np.isinf(y) + 4 * np.isnan(y)]
    idx = np.flatnonzero(~odd)
    v = x[idx]
    d, j, certain = _round17(np.abs(v))
    p = [d // 10**16, d // 10**12, d // 10**8, d // 10**4, d]
    g = [p[i] - 10**4 * p[i - 1] for i in range(1, 5)]  # the digits after the first, by four
    z = [_ZEROS[gi] for gi in g]
    nd = 17 - z[3] - (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    width = _WIDTH[j]  # the digits before the point, zeros among them kept
    at = np.where((nd > width) & (width > 0), width - 1, 16)  # the point's byte from byte 8
    w = np.stack([_QUAD[g[0]] | _QUAD[g[1]] << 32, _QUAD[g[2]] | _QUAD[g[3]] << 32])
    w &= _BELOW[:, np.maximum(nd, width) - 1]
    moved = w & ~_BELOW[:, at]
    point = (_BELOW[:, at + 1] ^ _BELOW[:, at]) & 0x2E2E2E2E2E2E2E2E  # "." at byte 8 + at
    w = (w & _BELOW[:, at]) | moved << 8 | point
    w[1] |= moved[0] >> 56
    first = (v < 0) * np.uint64(ord("-")) | _PRE[j] | (p[0] + 48).astype(np.uint64) << 56
    out[:, idx] = [first, *w, moved[1] >> 56 | _SUF[j] | sep]
    slow = idx[~certain]
    text = np.array([b"%.17g" % f for f in x[slow].tolist()], "S24")
    out[:3, slow], out[3, slow] = text.view("<u8").reshape(-1, 3).T, sep
    return out.T


def tv(log_tv):
    """The TV errors whose logs are log_tv: at most 1, and 0 where they underflow."""
    return np.exp(log_tv)


def write(f, log_tv, kl, log_ctv):
    """Write the CSV of the (trials, T, n) log TV and KL and the (trials, T) centralized log TV."""
    trials, T, n = log_tv.shape
    # trial, t and agent: each value and a comma, as rows of NUL-padded words
    ints = [np.array([b"%d," % v for v in r]) for r in (range(trials), range(1, T + 1), range(n))]
    ints = [t.astype(f"S{-(-t.itemsize // 8) * 8}").view("<u8").reshape(len(t), -1) for t in ints]
    f.write(CSV_HEADER)
    for q0 in range(0, log_tv.size, CSV_CHUNK):
        q = np.arange(q0, min(q0 + CSV_CHUNK, log_tv.size))  # flat (trial, step, agent) index
        s0 = q0 // n  # flat (trial, step) index of the chunk's first row
        # formatted once per (trial, step), not once per agent
        centralized = _format17(tv(log_ctv.ravel()[s0:q[-1] // n + 1]), b"\r\n")
        chunk = log_tv.ravel()[q0:q0 + len(q)]
        per_agent = (tv(chunk), chunk, kl.ravel()[q0:q0 + len(q)])
        words = np.concatenate(
            [w[i] for w, i in zip(ints, (q // (T * n), q // n % T, q % n))]
            + [_format17(c, b",") for c in per_agent]
            + [centralized[q // n - s0]], axis=1)
        text = words.astype("<u8", copy=False).view(np.uint8)
        f.write(text[text != 0].tobytes())
