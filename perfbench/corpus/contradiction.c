int contradiction(int x)
{
    int hits = 0;
    if (x > 0 && x < 0) {
        hits = 1;
    }
    return hits;
}
