/* Array contents behind a pointer parameter are test inputs. */

int pick(const int *values, int idx)
{
    if (idx < 0 || idx > 3) {
        return -1;
    }
    if (values[idx] > 50) {
        return 1;
    }
    return 0;
}
