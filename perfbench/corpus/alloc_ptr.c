#define ALLOCSIZE 10

char *alloc_ptr(char *allocbufp, char *allocp, unsigned int n)
{
    if (allocbufp == 0 || allocp == 0)
        return 0;

    if (allocbufp + ALLOCSIZE - allocp >= n) {
        allocp += n;
        return allocp - n;
    }
    return 0;
}
