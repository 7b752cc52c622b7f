/* The WMD ground cost of synvec.eval_extrinsic, in C.

   eval_extrinsic._pairwise_cost_reference is the numpy reference: per
   cell, subtract, square, np.sum over d, then sqrt. np.sum reduces a
   contiguous float64 row by numpy's pairwise summation, which this file
   repeats term for term, so both give the same bits:
   - fewer than 8 terms: a plain sum from 0;
   - up to 128 terms: eight sums seeded with the first 8 terms, each
     taking every 8th term up to n - n % 8, combined as
     ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in order;
   - more: the two halves split at n / 2 rounded down to a multiple of 8.
   numpy adds that sum to its initial 0, which leaves a sum of squares as
   it is. Build with -ffp-contract=off, so that no square is fused into
   its sum, and without -ffast-math, which would reorder the sums.

   The caller (eval_extrinsic._pairwise_cost) passes C-contiguous float64
   arrays a (m x d) and b (n x d), and out (m x n) to fill. */

#include <math.h>
#include <stdint.h>

static double sum_of_squares(const double *x, const double *y, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++) {
            double t = x[i] - y[i];
            res += t * t;
        }
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++) {
            double t = x[j] - y[j];
            r[j] = t * t;
        }
        int64_t i;
        for (i = 8; i < n - n % 8; i += 8) {
            for (int j = 0; j < 8; j++) {
                double t = x[i + j] - y[i + j];
                r[j] += t * t;
            }
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            double t = x[i] - y[i];
            res += t * t;
        }
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return sum_of_squares(x, y, half) + sum_of_squares(x + half, y + half, n - half);
}

void synvec_pairwise_cost(int64_t m, int64_t n, int64_t d, const double *a, const double *b,
                          double *out)
{
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < n; j++)
            out[i * n + j] = sqrt(sum_of_squares(a + i * d, b + j * d, d));
}
