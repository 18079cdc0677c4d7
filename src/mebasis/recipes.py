# Generated by tests/test_recipes.py from mebasis.catalog.ROWS; do not edit.
# Regenerate with: PYTHONPATH=src python tests/test_recipes.py
"""The 30 catalog recipes as one straight-line program: evaluate(sigma, m)
forms only the entries of the parts and leading products that some trace
reads, and multiplies no structural zero.  It reads the upper triangle of
sigma and checks nothing: catalog.evaluate_all does."""


def _third(t):
    """t / 3 as the reference's Fraction(1, 3) * t gives it, in t's ring;
    only an int that 3 does not divide makes a Fraction."""
    if not isinstance(t, int):
        return t / 3
    if not t % 3:
        return t // 3
    from fractions import Fraction
    return Fraction(t, 3)


def evaluate(sigma, m):
    (s00, s01, s02), (_, s11, s12), (_, _, s22) = sigma
    m0, m1, m2 = m
    t0 = m0 * m0
    mb_01 = m0 * m1
    mb_02 = m0 * m2
    t1 = m1 * m1
    mb_12 = m1 * m2
    t2 = m2 * m2
    t3 = s01 * s01
    t4 = s02 * s02
    sb2_00 = t3 + t4
    sb2_01 = s02 * s12
    sb2_02 = s01 * s12
    t5 = s12 * s12
    sb2_11 = t3 + t5
    sb2_12 = s01 * s02
    sb2_22 = t4 + t5
    I010 = s00 + s11 + s22
    t6 = _third(I010)
    sd_00 = s00 - t6
    sd_11 = s11 - t6
    sd_22 = s22 - t6
    I200 = t0 + t1 + t2
    t7 = _third(I200)
    md_00 = t0 - t7
    md_11 = t1 - t7
    md_22 = t2 - t7
    t8 = sb2_00 + sb2_11 + sb2_22
    t9 = _third(t8)
    sb2d_00 = sb2_00 - t9
    sb2d_11 = sb2_11 - t9
    sb2d_22 = sb2_22 - t9
    sd_sd_00 = sd_00 * sd_00
    sd_sd_11 = sd_11 * sd_11
    sd_sd_22 = sd_22 * sd_22
    sb_sd_01 = s01 * sd_11
    sb_sd_02 = s02 * sd_22
    sb_sd_10 = s01 * sd_00
    sb_sd_12 = s12 * sd_22
    sb_sd_20 = s02 * sd_00
    sb_sd_21 = s12 * sd_11
    sb_sd_sb_00 = sb_sd_01 * s01 + sb_sd_02 * s02
    sb_sd_sb_11 = sb_sd_10 * s01 + sb_sd_12 * s12
    sb_sd_sb_22 = sb_sd_20 * s02 + sb_sd_21 * s12
    t10 = s01 * sb2_01
    t11 = s02 * sb2_02
    sb_sb2b_01 = s02 * sb2_12
    sb_sb2b_02 = s01 * sb2_12
    sb_sb2b_10 = s12 * sb2_02
    t12 = s12 * sb2_12
    sb_sb2b_12 = s01 * sb2_02
    sb_sb2b_20 = s12 * sb2_01
    sb_sb2b_21 = s02 * sb2_01
    sb_sb2b_sb_00 = sb_sb2b_01 * s01 + sb_sb2b_02 * s02
    sb_sb2b_sb_11 = sb_sb2b_10 * s01 + sb_sb2b_12 * s12
    sb_sb2b_sb_22 = sb_sb2b_20 * s02 + sb_sb2b_21 * s12
    t13 = mb_01 * s01
    t14 = mb_02 * s02
    mb_sb_00 = t13 + t14
    mb_sb_01 = mb_02 * s12
    mb_sb_02 = mb_01 * s12
    mb_sb_10 = mb_12 * s02
    t15 = mb_12 * s12
    mb_sb_11 = t13 + t15
    mb_sb_12 = mb_01 * s02
    mb_sb_20 = mb_12 * s01
    mb_sb_21 = mb_02 * s01
    mb_sb_22 = t14 + t15
    md_sd_00 = md_00 * sd_00
    md_sd_11 = md_11 * sd_11
    md_sd_22 = md_22 * sd_22
    t16 = mb_01 * sb2_01
    t17 = mb_02 * sb2_02
    mb_sb2b_00 = t16 + t17
    mb_sb2b_01 = mb_02 * sb2_12
    mb_sb2b_02 = mb_01 * sb2_12
    mb_sb2b_10 = mb_12 * sb2_02
    t18 = mb_12 * sb2_12
    mb_sb2b_11 = t16 + t18
    mb_sb2b_12 = mb_01 * sb2_02
    mb_sb2b_20 = mb_12 * sb2_01
    mb_sb2b_21 = mb_02 * sb2_01
    mb_sb2b_22 = t17 + t18
    md_sb2d_00 = md_00 * sb2d_00
    md_sb2d_11 = md_11 * sb2d_11
    md_sb2d_22 = md_22 * sb2d_22
    mb_sd_01 = mb_01 * sd_11
    mb_sd_02 = mb_02 * sd_22
    mb_sd_10 = mb_01 * sd_00
    mb_sd_12 = mb_12 * sd_22
    mb_sd_20 = mb_02 * sd_00
    mb_sd_21 = mb_12 * sd_11
    mb_sd_sb_00 = mb_sd_01 * s01 + mb_sd_02 * s02
    mb_sd_sb_01 = mb_sd_02 * s12
    mb_sd_sb_02 = mb_sd_01 * s12
    mb_sd_sb_10 = mb_sd_12 * s02
    mb_sd_sb_11 = mb_sd_10 * s01 + mb_sd_12 * s12
    mb_sd_sb_12 = mb_sd_10 * s02
    mb_sd_sb_20 = mb_sd_21 * s01
    mb_sd_sb_21 = mb_sd_20 * s01
    mb_sd_sb_22 = mb_sd_20 * s02 + mb_sd_21 * s12
    md_sb_01 = md_00 * s01
    md_sb_02 = md_00 * s02
    md_sb_10 = md_11 * s01
    md_sb_12 = md_11 * s12
    md_sb_20 = md_22 * s02
    md_sb_21 = md_22 * s12
    md_sb_sb2b_01 = md_sb_02 * sb2_12
    md_sb_sb2b_02 = md_sb_01 * sb2_12
    md_sb_sb2b_10 = md_sb_12 * sb2_02
    md_sb_sb2b_12 = md_sb_10 * sb2_02
    md_sb_sb2b_20 = md_sb_21 * sb2_01
    md_sb_sb2b_21 = md_sb_20 * sb2_01
    mb_sb2d_01 = mb_01 * sb2d_11
    mb_sb2d_02 = mb_02 * sb2d_22
    mb_sb2d_10 = mb_01 * sb2d_00
    mb_sb2d_12 = mb_12 * sb2d_22
    mb_sb2d_20 = mb_02 * sb2d_00
    mb_sb2d_21 = mb_12 * sb2d_11
    mb_sb2d_sb_00 = mb_sb2d_01 * s01 + mb_sb2d_02 * s02
    mb_sb2d_sb_11 = mb_sb2d_10 * s01 + mb_sb2d_12 * s12
    mb_sb2d_sb_22 = mb_sb2d_20 * s02 + mb_sb2d_21 * s12
    mb_sd_sb2b_00 = mb_sd_01 * sb2_01 + mb_sd_02 * sb2_02
    mb_sd_sb2b_11 = mb_sd_10 * sb2_01 + mb_sd_12 * sb2_12
    mb_sd_sb2b_22 = mb_sd_20 * sb2_02 + mb_sd_21 * sb2_12
    t19 = mb_01 * mb_01
    t20 = mb_02 * mb_02
    mb_mb_01 = mb_02 * mb_12
    mb_mb_02 = mb_01 * mb_12
    t21 = mb_12 * mb_12
    mb_mb_12 = mb_01 * mb_02
    md_mb_01 = md_00 * mb_01
    md_mb_02 = md_00 * mb_02
    md_mb_10 = md_11 * mb_01
    md_mb_12 = md_11 * mb_12
    md_mb_20 = md_22 * mb_02
    md_mb_21 = md_22 * mb_12
    md_mb_md_01 = md_mb_01 * md_11
    md_mb_md_02 = md_mb_02 * md_22
    md_mb_md_10 = md_mb_10 * md_00
    md_mb_md_12 = md_mb_12 * md_22
    md_mb_md_20 = md_mb_20 * md_00
    md_mb_md_21 = md_mb_21 * md_11
    t22 = sb2_01 * sb2_01
    t23 = sb2_02 * sb2_02
    t24 = sb2_12 * sb2_12
    t25 = mb_mb_01 * mb_01
    t26 = mb_mb_02 * mb_02
    t27 = mb_mb_12 * mb_12
    return {
        "I010": I010,
        "I002": sb2_00 + t3 + t5 + t4 + t5,
        "I020": sd_sd_00 + sd_sd_11 + sd_sd_22,
        "I003": t10 + t11 + t10 + t12 + t11 + t12,
        "I012": sb2_00 * sd_00 + sb2_11 * sd_11 + sb2_22 * sd_22,
        "I030": sd_sd_00 * sd_00 + sd_sd_11 * sd_11 + sd_sd_22 * sd_22,
        "I004": t22 + t23 + t22 + t24 + t23 + t24,
        "I022": sb_sd_sb_00 * sd_00 + sb_sd_sb_11 * sd_11 + sb_sd_sb_22 * sd_22,
        "I014": sb_sb2b_sb_00 * sd_00 + sb_sb2b_sb_11 * sd_11 + sb_sb2b_sb_22 * sd_22,
        "I200": I200,
        "I201": mb_sb_00 + t13 + t15 + t14 + t15,
        "I210": md_sd_00 + md_sd_11 + md_sd_22,
        "I202a": md_00 * sb2_00 + md_11 * sb2_11 + md_22 * sb2_22,
        "I202b": mb_sb2b_00 + t16 + t18 + t17 + t18,
        "I211": mb_sb_00 * sd_00 + mb_sb_11 * sd_11 + mb_sb_22 * sd_22,
        "I220": md_sd_00 * sd_00 + md_sd_11 * sd_11 + md_sd_22 * sd_22,
        "I203": (mb_sb2b_01 * s01 + mb_sb2b_02 * s02 + mb_sb2b_10 * s01 + mb_sb2b_12 * s12
                 + mb_sb2b_20 * s02 + mb_sb2b_21 * s12),
        "I212a": md_sb2d_00 * sd_00 + md_sb2d_11 * sd_11 + md_sb2d_22 * sd_22,
        "I212b": mb_sb2b_00 * sd_00 + mb_sb2b_11 * sd_11 + mb_sb2b_22 * sd_22,
        "I221": mb_sd_sb_00 * sd_00 + mb_sd_sb_11 * sd_11 + mb_sd_sb_22 * sd_22,
        "I204": (md_sb_sb2b_01 * s01 + md_sb_sb2b_02 * s02 + md_sb_sb2b_10 * s01
                 + md_sb_sb2b_12 * s12 + md_sb_sb2b_20 * s02 + md_sb_sb2b_21 * s12),
        "I213": mb_sb2d_sb_00 * sd_00 + mb_sb2d_sb_11 * sd_11 + mb_sb2d_sb_22 * sd_22,
        "I222": mb_sd_sb2b_00 * sd_00 + mb_sd_sb2b_11 * sd_11 + mb_sd_sb2b_22 * sd_22,
        "I400": t19 + t20 + t19 + t21 + t20 + t21,
        "I401": (mb_sb_01 * mb_01 + mb_sb_02 * mb_02 + mb_sb_10 * mb_01 + mb_sb_12 * mb_12
                 + mb_sb_20 * mb_02 + mb_sb_21 * mb_12),
        "I410": (mb_sd_01 * mb_01 + mb_sd_02 * mb_02 + mb_sd_10 * mb_01 + mb_sd_12 * mb_12
                 + mb_sd_20 * mb_02 + mb_sd_21 * mb_12),
        "I402": (mb_sb2b_01 * mb_01 + mb_sb2b_02 * mb_02 + mb_sb2b_10 * mb_01 + mb_sb2b_12 * mb_12
                 + mb_sb2b_20 * mb_02 + mb_sb2b_21 * mb_12),
        "I411": (mb_sd_sb_01 * mb_01 + mb_sd_sb_02 * mb_02 + mb_sd_sb_10 * mb_01
                 + mb_sd_sb_12 * mb_12 + mb_sd_sb_20 * mb_02 + mb_sd_sb_21 * mb_12),
        "I600": t25 + t26 + t25 + t27 + t26 + t27,
        "I601": (md_mb_md_01 * s01 + md_mb_md_02 * s02 + md_mb_md_10 * s01 + md_mb_md_12 * s12
                 + md_mb_md_20 * s02 + md_mb_md_21 * s12),
    }
