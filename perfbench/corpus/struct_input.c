/* Struct and bit-field inputs drive the branches. */

struct flags {
    unsigned int mode : 2;
    unsigned int hot : 1;
    int level;
};

struct flags fl;

int classify(struct flags probe)
{
    int score = 0;
    if (fl.mode == 3) {
        score = score + 10;
    }
    if (probe.level > fl.level) {
        score = score + 1;
    }
    if (probe.hot) {
        score = score + 100;
    }
    return score;
}
