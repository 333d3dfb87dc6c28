/* External call unit: func_ext has no body and gets stubbed. */
#include "rtt_annotations.h"

int error_flag;
int globalVar;

#define ERROR error_flag = 1

extern int func_ext(int a);

void test(int p1, int p2)
{
    __rtt_modifies(globalVar);
    __rtt_testcase(1, error_flag == 1, "REACH_ERROR");
    globalVar = -p2;
    if (func_ext(p1) > p2 && func_ext(p2) == p1 &&
        globalVar == p2) {
        ERROR;
    }
}
