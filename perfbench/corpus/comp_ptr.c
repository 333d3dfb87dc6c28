#define NULL 0

int comp_ptr(char *p1, char *p2)
{
    if (p1 != NULL && p2 != NULL && p1 == p2) {
        return 1;
    }
    return 0;
}
