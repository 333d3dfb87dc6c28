/* Shape used by the expansion/selection walkthrough: a guarded region,
 * a nested guard, an assignment, then a loop the expansion must chase. */

int select_demo(int a, int b)
{
    int c = 0;
    if (a) {
        if (b) {
            c = 1;
            while (c) {
                c = c - 1;
            }
        }
    }
    return c;
}
