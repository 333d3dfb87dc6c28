/* Pointer comparison unit: the guarded branch needs p1 < p2. */
#include "rtt_annotations.h"

int error_flag;

#define ERROR error_flag = 1

void test(char *p1, char *p2)
{
    __rtt_testcase(1, error_flag == 1, "REACH_ERROR");
    if (p1 < p2) {
        ERROR;
    }
}
