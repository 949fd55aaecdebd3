/* The lemma sweep's log-space exponent (bernsing.basis._blocks).

   out[i * stride + j] = (double)(((lnx[i] * k) + lb[j]) + ln1mx[i] * (n - k))
   with k = c0 + j, for the rows i < rows and the columns j < width.  Every
   operation is in long double and in the order of the four numpy passes it
   replaces, so the values carry their bits: build without -ffast-math and
   with -ffp-contract=off.  The integers k and n - k are exact in long
   double up to 2^64. */

void bernsing_exponent(const long double *lnx, const long double *ln1mx, long long rows,
                       const long double *lb, long long c0, long long width, long long n,
                       double *out, long long stride)
{
    for (long long i = 0; i < rows; i++) {
        double *o = out + i * stride;
        for (long long j = 0; j < width; j++) {
            long double k = (long double)(c0 + j);
            o[j] = (double)(((lnx[i] * k) + lb[j]) + ln1mx[i] * ((long double)n - k));
        }
    }
}
