#include "rtt_annotations.h"

#define ALLOCSIZE 10

char allocbuf[ALLOCSIZE];
char *allocp = allocbuf;

char *alloc(int n)
{
    __rtt_modifies(allocp);
    __rtt_precondition(n >= 0 && allocp != 0);
    __rtt_postcondition(allocp != 0 && allocp <= allocbuf + ALLOCSIZE);
    __rtt_testcase(allocbuf + ALLOCSIZE - __rtt_initial(allocp) < n,
                   __rtt_return == 0,
                   "CTGEN_001");
    __rtt_testcase(allocbuf + ALLOCSIZE - __rtt_initial(allocp) >= n,
                   __rtt_return == __rtt_initial(allocp),
                   "CTGEN_002");

    char *retval = 0;
    allocbuf[0] = 'x';
    if (allocbuf + ALLOCSIZE - allocp >= n) {
        allocp += n;
        retval = allocp - n;
    }

    return retval;
}
